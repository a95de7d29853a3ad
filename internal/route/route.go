// Package route evaluates and realizes the monotonic two-layer BGA routing
// of the paper (after Kubo–Takahashi): every net descends from its finger on
// Layer 1, crosses each horizontal line exactly once, dives at the via fixed
// at the bottom-left corner of its bump ball, and finishes on Layer 2.
//
// The quantity the paper optimizes is the wire *density*: the number of
// wires passing between two consecutive via sites on a horizontal via line.
// Because routing is monotonic and single-layer above the via, wires cross a
// via line in finger order; nets terminating on the line pin their position
// at their via site, and the remaining ("passing") wires spread as evenly as
// the gaps between pins allow. The density model here computes that optimal
// balanced spreading, which is what the iterative-improvement router of the
// paper's reference [10] approximates.
package route

import (
	"fmt"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/geom"
	"copack/internal/netlist"
)

// LineStat describes the load on one via line (the line carrying the vias of
// ball row Y).
type LineStat struct {
	// Y is the ball line whose vias sit on this via line (1-based).
	Y int
	// SegmentLoad[j] is the number of passing wires in segment j; segment
	// 0 is left of via site 1, segment j (1<=j<S) lies between sites j
	// and j+1, and segment S is right of site S, where S is the number of
	// via sites on the line.
	SegmentLoad []int
	// Max is the maximum of SegmentLoad.
	Max int
	// Passing and Terminating count the wires crossing the line and the
	// nets whose vias are on it.
	Passing, Terminating int
}

// QuadrantStats aggregates the density metrics of one quadrant.
type QuadrantStats struct {
	Side bga.Side
	// Lines[y-1] is the via line of ball row y.
	Lines []LineStat
	// MaxDensity is the maximum segment load over all lines.
	MaxDensity int
	// Wirelength is the total flyline length (finger→via on Layer 1 plus
	// via→ball on Layer 2) in µm.
	Wirelength float64
}

// Stats is the evaluation of a full assignment.
type Stats struct {
	Quadrants [bga.NumSides]QuadrantStats
	// MaxDensity is the package-wide maximum segment load.
	MaxDensity int
	// Wirelength is the package-wide total flyline length in µm.
	Wirelength float64
}

// Evaluate computes density and wirelength for a monotonic-legal
// assignment. It returns an error if the assignment violates the via-order
// rule (no legal monotonic routing exists).
func Evaluate(p *core.Problem, a *core.Assignment) (*Stats, error) {
	if err := core.CheckMonotonic(p, a); err != nil {
		return nil, err
	}
	out := &Stats{}
	for _, side := range bga.Sides() {
		qs, err := evaluateQuadrant(p, p.Pkg.Quadrant(side), a.Slots[side], nil)
		if err != nil {
			return nil, err
		}
		out.Quadrants[side] = qs
		if qs.MaxDensity > out.MaxDensity {
			out.MaxDensity = qs.MaxDensity
		}
		out.Wirelength += qs.Wirelength
	}
	return out, nil
}

// EvaluateQuadrant computes the stats of a single quadrant order (it checks
// legality of that order first).
func EvaluateQuadrant(p *core.Problem, side bga.Side, order []netlist.ID) (QuadrantStats, error) {
	q := p.Pkg.Quadrant(side)
	if err := core.CheckMonotonicQuadrant(q, order); err != nil {
		return QuadrantStats{}, err
	}
	return evaluateQuadrant(p, q, order, nil)
}

// evaluateQuadrant computes the stats of one quadrant order under a via
// plan (nil: every via at its ball's default site). The caller has checked
// the order's legality.
func evaluateQuadrant(p *core.Problem, q *bga.Quadrant, order []netlist.ID, plan ViaPlan) (QuadrantStats, error) {
	qs := QuadrantStats{Side: q.Side, Lines: make([]LineStat, q.NumRows())}
	for y := 1; y <= q.NumRows(); y++ {
		ls, err := lineStat(q, order, y, plan)
		if err != nil {
			return QuadrantStats{}, err
		}
		qs.Lines[y-1] = ls
		if ls.Max > qs.MaxDensity {
			qs.MaxDensity = ls.Max
		}
	}
	qs.Wirelength = wirelength(p, q, order, plan)
	return qs, nil
}

// lineStat computes the balanced segment loads on the via line of ball row
// y. Wires crossing the line are the nets with ball row < y; nets with ball
// row == y terminate at their via site: plan[id] when the plan has one,
// else the default bottom-left site (1-based site index = ball x).
func lineStat(q *bga.Quadrant, order []netlist.ID, y int, plan ViaPlan) (LineStat, error) {
	sites := q.Row(y).Sites()
	ls := LineStat{Y: y, SegmentLoad: make([]int, sites+1)}

	// Walk the fingers left to right, collecting runs of passing wires
	// between consecutive pinned vias.
	prevVia := 0 // sentinel: left package edge, "site 0"
	run := 0     // passing wires since the previous pin
	for slot, id := range order {
		b, ok := q.Ball(id)
		if !ok {
			return LineStat{}, fmt.Errorf("route: %v slot %d: net %d not in quadrant", q.Side, slot+1, id)
		}
		switch {
		case b.Y == y: // terminates here: pin at its via site
			site := b.X
			if s, ok := plan[id]; ok {
				site = s
			}
			if site < 1 || site > sites {
				return LineStat{}, fmt.Errorf("route: %v line %d: net %d via site %d outside 1..%d", q.Side, y, id, site, sites)
			}
			if err := flushRun(&ls, q.Side, &prevVia, &run, site); err != nil {
				return LineStat{}, err
			}
			ls.Terminating++
		case b.Y < y: // passes through
			run++
		}
	}
	// Final run spreads over segments prevVia..sites.
	if err := flushRun(&ls, q.Side, &prevVia, &run, sites+1); err != nil {
		return LineStat{}, err
	}
	return ls, nil
}

// flushRun spreads the pending run of passing wires evenly over the
// segments prevVia..nextVia-1 and advances the walk state.
func flushRun(ls *LineStat, side bga.Side, prevVia, run *int, nextVia int) error {
	k := nextVia - *prevVia
	if k <= 0 {
		return fmt.Errorf("route: %v line %d: via order broken (site %d after %d)", side, ls.Y, nextVia, *prevVia)
	}
	base, extra := *run/k, *run%k
	for j := 0; j < k; j++ {
		load := base
		if j < extra {
			load++
		}
		ls.SegmentLoad[*prevVia+j] = load
		if load > ls.Max {
			ls.Max = load
		}
	}
	ls.Passing += *run
	*run = 0
	*prevVia = nextVia
	return nil
}

// wirelength sums the flyline lengths under a via plan (nil: default
// sites): finger center to via site on Layer 1 plus via site to ball
// center on Layer 2.
func wirelength(p *core.Problem, q *bga.Quadrant, order []netlist.ID, plan ViaPlan) float64 {
	var total float64
	for slot, id := range order {
		b, ok := q.Ball(id)
		if !ok {
			continue
		}
		site := b.X
		if s, ok := plan[id]; ok {
			site = s
		}
		f := p.Pkg.FingerCenter(q, slot+1)
		v := p.Pkg.ViaSite(q, site, b.Y)
		ball := p.Pkg.BallCenter(q, b.X, b.Y)
		total += f.Dist(v) + v.Dist(ball)
	}
	return total
}

// --- Route realization -------------------------------------------------------

// Path is the realized geometry of one net in global package coordinates.
type Path struct {
	Net netlist.ID
	// Layer1 runs from the finger to the via, crossing each via line once
	// (monotonic).
	Layer1 geom.Polyline
	// Via is the via location.
	Via geom.Pt
	// Layer2 runs from the via to the bump ball center.
	Layer2 geom.Seg
}

// Length returns the total routed length of the path.
func (p Path) Length() float64 { return p.Layer1.Len() + p.Layer2.Len() }

// Routing is a full realized routing solution.
type Routing struct {
	Stats *Stats
	Paths []Path
}

// Realize produces concrete wire geometry for every net: each passing wire
// crosses a via line inside its balanced segment, with wires sharing a
// segment spread evenly across it. The result is crossing-free on Layer 1
// within each quadrant and reproduces exactly the densities reported by
// Evaluate.
func Realize(p *core.Problem, a *core.Assignment) (*Routing, error) {
	stats, err := Evaluate(p, a)
	if err != nil {
		return nil, err
	}
	r := &Routing{Stats: stats}
	for _, side := range bga.Sides() {
		paths, err := realizeQuadrant(p, side, a.Slots[side])
		if err != nil {
			return nil, err
		}
		r.Paths = append(r.Paths, paths...)
	}
	return r, nil
}

// realizeQuadrant builds the per-net polylines of one quadrant in global
// coordinates.
func realizeQuadrant(p *core.Problem, side bga.Side, order []netlist.ID) ([]Path, error) {
	q := p.Pkg.Quadrant(side)
	bp := p.Pkg.Spec.BallPitch()
	n := q.NumRows()

	// crossingX[id] accumulates the Layer-1 crossing x coordinate of each
	// net at each via line it passes, keyed by line y.
	type cross struct {
		y int
		x float64
	}
	crossings := make(map[netlist.ID][]cross)

	for y := n; y >= 1; y-- {
		sites := q.Row(y).Sites()
		// siteX(i) is the local x of via site i on this line; sentinels
		// extend one pitch beyond the ends.
		siteX := func(i int) float64 {
			if i < 1 {
				return p.Pkg.ViaSite(q, 1, y).X - bp
			}
			if i > sites {
				return p.Pkg.ViaSite(q, sites, y).X + bp
			}
			return p.Pkg.ViaSite(q, i, y).X
		}

		prevVia := 0
		var run []netlist.ID
		flush := func(nextVia int) {
			k := nextVia - prevVia
			if k <= 0 || len(run) == 0 {
				prevVia = nextVia
				run = nil
				return
			}
			base, extra := len(run)/k, len(run)%k
			idx := 0
			for j := 0; j < k; j++ {
				cnt := base
				if j < extra {
					cnt++
				}
				segLo, segHi := siteX(prevVia+j), siteX(prevVia+j+1)
				for w := 0; w < cnt; w++ {
					id := run[idx]
					idx++
					frac := float64(w+1) / float64(cnt+1)
					crossings[id] = append(crossings[id], cross{y: y, x: segLo + frac*(segHi-segLo)})
				}
			}
			prevVia = nextVia
			run = nil
		}
		for _, id := range order {
			b, _ := q.Ball(id)
			switch {
			case b.Y == y:
				flush(b.X)
			case b.Y < y:
				run = append(run, id)
			}
		}
		flush(sites + 1)
	}

	paths := make([]Path, 0, len(order))
	for slot, id := range order {
		b, ok := q.Ball(id)
		if !ok {
			return nil, fmt.Errorf("route: %v slot %d: net %d not in quadrant", side, slot+1, id)
		}
		via := p.Pkg.ViaSite(q, b.X, b.Y)
		ball := p.Pkg.BallCenter(q, b.X, b.Y)
		pl := geom.Polyline{p.Pkg.FingerCenter(q, slot+1)}
		// Crossings were collected from line n downward, so they are
		// already ordered by decreasing Y.
		for _, c := range crossings[id] {
			yCoord := p.Pkg.ViaSite(q, 1, c.y).Y
			pl = append(pl, geom.P(c.x, yCoord))
		}
		pl = append(pl, via)
		if !pl.MonotonicDecreasingY() {
			return nil, fmt.Errorf("route: %v net %d: realized path is not monotonic", side, id)
		}
		gp := make(geom.Polyline, len(pl))
		for i, pt := range pl {
			gp[i] = p.Pkg.ToGlobal(side, pt)
		}
		paths = append(paths, Path{
			Net:    id,
			Layer1: gp,
			Via:    p.Pkg.ToGlobal(side, via),
			Layer2: geom.Seg{A: p.Pkg.ToGlobal(side, via), B: p.Pkg.ToGlobal(side, ball)},
		})
	}
	return paths, nil
}

// TotalLength returns the summed realized length of all paths.
func (r *Routing) TotalLength() float64 {
	var t float64
	for _, p := range r.Paths {
		t += p.Length()
	}
	return t
}
