package route

import (
	"context"
	"fmt"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/faultinject"
	"copack/internal/netlist"
)

// The paper fixes every via at its bump ball's bottom-left corner and cites
// Kubo–Takahashi [10] for the idea of *iteratively improving* via locations
// to cut density further. This file implements that extension: a net's via
// may shift to another candidate site of its line (the sites are the
// bottom-left corners of the line's balls, one candidate per ball, at most
// one via per site) as long as the line's via order still matches the
// finger order, which keeps the routing monotonic and crossing-free.

// ViaPlan maps a net to its via site index (1-based) on its ball line. Nets
// absent from the plan use the default bottom-left site (= their ball x).
type ViaPlan map[netlist.ID]int

// Clone returns a copy of the plan.
func (v ViaPlan) Clone() ViaPlan {
	out := make(ViaPlan, len(v))
	for k, s := range v {
		out[k] = s
	}
	return out
}

// EvaluateQuadrantVias evaluates one quadrant order under an explicit via
// plan. It rejects plans that break the via-order rule or collide two vias
// on one site.
func EvaluateQuadrantVias(p *core.Problem, side bga.Side, order []netlist.ID, plan ViaPlan) (QuadrantStats, error) {
	q := p.Pkg.Quadrant(side)
	if err := checkViaPlan(q, order, plan); err != nil {
		return QuadrantStats{}, err
	}
	return evaluateQuadrant(p, q, order, plan)
}

// checkViaPlan verifies per-line uniqueness and finger-order consistency.
func checkViaPlan(q *bga.Quadrant, order []netlist.ID, plan ViaPlan) error {
	lastSite := make([]int, q.NumRows()+1)
	used := make(map[[2]int]bool, len(order)) // (line, site)
	for slot, id := range order {
		b, ok := q.Ball(id)
		if !ok {
			return fmt.Errorf("route: slot %d: net %d not in quadrant", slot+1, id)
		}
		site := b.X
		if s, ok := plan[id]; ok {
			site = s
		}
		if site < 1 || site > q.Row(b.Y).Sites() {
			return fmt.Errorf("route: net %d: via site %d outside line %d's 1..%d", id, site, b.Y, q.Row(b.Y).Sites())
		}
		key := [2]int{b.Y, site}
		if used[key] {
			return fmt.Errorf("route: line %d site %d holds two vias", b.Y, site)
		}
		used[key] = true
		if prev := lastSite[b.Y]; prev >= site {
			return fmt.Errorf("route: line %d: via order violates finger order at net %d (site %d after %d)", b.Y, id, site, prev)
		}
		lastSite[b.Y] = site
	}
	return nil
}

// ImproveVias greedily shifts vias, one site at a time, while that strictly
// lowers the quadrant's maximum density (the iterative-improvement idea of
// the paper's reference [10]). It returns the final plan and stats. The
// move set per pass: every net may try its left and right neighbor site;
// the first strictly improving legal shift is taken; passes repeat until a
// fixed point or maxPasses.
func ImproveVias(p *core.Problem, side bga.Side, order []netlist.ID, maxPasses int) (ViaPlan, QuadrantStats, error) {
	plan, qs, _, err := ImproveViasContext(context.Background(), p, side, order, maxPasses)
	return plan, qs, err
}

// ImproveViasContext is ImproveVias with cancellation: the pass loop polls
// ctx (and the fault-injection site) between passes, and on cancellation
// returns the best plan reached so far with stopped=true. Because the
// improvement is strictly monotone, a stopped result is never worse than
// the default plan.
func ImproveViasContext(ctx context.Context, p *core.Problem, side bga.Side, order []netlist.ID, maxPasses int) (ViaPlan, QuadrantStats, bool, error) {
	if maxPasses <= 0 {
		maxPasses = 16
	}
	plan := make(ViaPlan)
	best, err := EvaluateQuadrantVias(p, side, order, plan)
	if err != nil {
		return nil, QuadrantStats{}, false, err
	}
	q := p.Pkg.Quadrant(side)
	stopped := false
	for pass := 0; pass < maxPasses; pass++ {
		if err := faultinject.Fire(faultinject.RoutePass); err != nil {
			stopped = true
			break
		}
		if ctx.Err() != nil {
			stopped = true
			break
		}
		improved := false
		for _, id := range order {
			for _, dir := range []int{1, -1} {
				trial, ok := shove(q, plan, id, dir)
				if !ok {
					continue
				}
				qs, err := EvaluateQuadrantVias(p, side, order, trial)
				if err != nil {
					continue // order rule broke (nets straddling lines)
				}
				if qs.MaxDensity < best.MaxDensity ||
					(qs.MaxDensity == best.MaxDensity && qs.Wirelength < best.Wirelength-1e-12) {
					plan, best = trial, qs
					improved = true
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return plan, best, stopped, nil
}

// shove builds a trial plan where net id's via moves one site in dir; a
// via already on the target site is pushed recursively in the same
// direction (the classic shove move — it preserves the line's via order by
// construction). ok=false when the chain runs off the line.
func shove(q *bga.Quadrant, plan ViaPlan, id netlist.ID, dir int) (ViaPlan, bool) {
	b, ok := q.Ball(id)
	if !ok {
		return nil, false
	}
	sites := q.Row(b.Y).Sites()
	// Current sites of every net on this line.
	siteOf := make(map[netlist.ID]int)
	occupant := make(map[int]netlist.ID)
	for _, nid := range q.Row(b.Y).Nets {
		if nid == bga.NoNet {
			continue
		}
		nb, _ := q.Ball(nid)
		s := nb.X
		if v, ok := plan[nid]; ok {
			s = v
		}
		siteOf[nid] = s
		occupant[s] = nid
	}
	trial := plan.Clone()
	cur := id
	for {
		next := siteOf[cur] + dir
		if next < 1 || next > sites {
			return nil, false
		}
		trial[cur] = next
		blocker, occupied := occupant[next]
		if !occupied {
			return trial, true
		}
		cur = blocker
	}
}

// ImproveViasAllContext runs ImproveViasContext on every quadrant of an
// assignment and returns the per-side plans and the resulting package-wide
// stats. After ctx expires each remaining quadrant stops improving immediately (its default
// plan is still evaluated, so the stats stay complete and package-wide);
// stopped=true reports that at least one quadrant was cut short.
func ImproveViasAllContext(ctx context.Context, p *core.Problem, a *core.Assignment, maxPasses int) ([bga.NumSides]ViaPlan, *Stats, bool, error) {
	var plans [bga.NumSides]ViaPlan
	out := &Stats{}
	stopped := false
	for _, side := range bga.Sides() {
		plan, qs, st, err := ImproveViasContext(ctx, p, side, a.Slots[side], maxPasses)
		if err != nil {
			return plans, nil, stopped, err
		}
		stopped = stopped || st
		plans[side] = plan
		out.Quadrants[side] = qs
		if qs.MaxDensity > out.MaxDensity {
			out.MaxDensity = qs.MaxDensity
		}
		out.Wirelength += qs.Wirelength
	}
	return plans, out, stopped, nil
}
