// Min-cost max-flow finger/pad assignment — the network-flow engine beside
// IFA and DFA. Each quadrant is a bipartite assignment network: a source
// feeding one unit of flow per net (ranked in ball order), one node per
// finger slot, and edges whose costs blend Eq 2 congestion pressure with an
// IR-spread term consistent with Eq 3's weighting. Successive shortest
// augmenting paths with Johnson potentials (the dense Jonker–Volgenant form)
// solve it exactly; a final per-line uncrossing turns the matching into a
// monotonic-legal order without increasing the congestion cost.
package assign

import (
	"fmt"
	"math"
	"sync"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
)

// mcmfScale integerizes the blended edge costs: everything below the solver
// is int64 arithmetic, so the matching involves no float comparisons and is
// bit-identical across platforms and GOMAXPROCS values.
const mcmfScale = 1024

// mcmfInf is the solver's infinity: far above any path cost, far below
// int64 overflow once potentials shift it.
const mcmfInf = int64(1) << 50

// MCMFOptions tunes the min-cost max-flow assignment.
type MCMFOptions struct {
	// Lambda and Rho blend the two edge-cost terms, mirroring the Eq 3
	// weights: Rho scales the congestion pressure (lines crossed ×
	// lateral displacement, both in slot units — the displacement is how
	// far the slot sits from the ball's proportional position along the
	// ring, which is the number of sections the wire sweeps sideways and
	// hence the pressure Eq 2's sections accumulate) and Lambda the IR
	// term (distance from a power net's slot to the nearest
	// evenly-spread ring target, the configuration the compact pad-gap
	// proxy scores best). Zero means the default weight 1; negative
	// values disable the term.
	Lambda, Rho float64
}

// MCMFScratch is reusable working memory for MCMFQuadrantScratch. The zero
// value is ready to use; passing the same scratch to successive calls (any
// quadrant sizes) reuses every internal buffer, so warm solves allocate
// only the returned order itself. Not safe for concurrent use.
type MCMFScratch struct {
	fx   []float64    // fx[j]: finger slot j position, in slot units (1-based)
	vx   []float64    // vx[i]: rank-i ball's lateral fraction mapped to slot units
	mul  []float64    // mul[i]: Rho·mcmfScale·(lines crossed)
	sup  []bool       // sup[i]: rank i carries a power net
	ir   []int64      // ir[j]: Lambda·mcmfScale·(slot j → nearest spread target)
	line []int32      // line[i]: ball line of rank i
	nets []netlist.ID // nets[i]: net of rank i (ball order, grouped by line)
	next []int32      // per-line rank cursor during uncrossing

	u, v, minv []int64
	matched    []int32 // matched[j]: rank currently matched to slot j
	way        []int32
	used       []bool

	m int
}

// grow returns s with length n, reallocating only when the capacity is too
// small — the scratch arena's warm-reuse primitive.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepare fills the per-net and per-slot cost tables for one quadrant.
func (s *MCMFScratch) prepare(p *core.Problem, q *bga.Quadrant, opt MCMFOptions) {
	m := q.NumNets()
	s.m = m
	lambda, rho := opt.Lambda, opt.Rho
	if lambda == 0 {
		lambda = 1
	} else if lambda < 0 {
		lambda = 0
	}
	if rho == 0 {
		rho = 1
	} else if rho < 0 {
		rho = 0
	}
	s.fx = grow(s.fx, m+1)
	s.vx = grow(s.vx, m+1)
	s.mul = grow(s.mul, m+1)
	s.sup = grow(s.sup, m+1)
	s.ir = grow(s.ir, m+1)
	s.line = grow(s.line, m+1)
	s.nets = grow(s.nets, m+1)
	s.next = grow(s.next, q.NumRows()+1)

	// Positions live in slot units, not physical coordinates: the finger
	// pitch is far smaller than the ball pitch, so physical spans are
	// dominated by the fixed ball offsets and barely distinguish slots.
	// What crossings actually track is order displacement — how many
	// section boundaries sit between a wire's slot and its ball's
	// proportional ring position — so both sides are mapped to [0, m].
	for j := 1; j <= m; j++ {
		s.fx[j] = float64(j)
	}
	// below counts the nets on lines 1..y−1 — the wires that pass line y
	// and whose run spreading depends on line y's delimiters sitting at
	// their proportional ring positions. Walking lines bottom-up keeps it
	// a running prefix sum.
	// Borrow the uncross cursor buffer; uncross rewrites it fully later.
	s.next = grow(s.next, q.NumRows()+1)
	belowOf := s.next
	below := 0
	for y := 1; y <= q.NumRows(); y++ {
		belowOf[y] = int32(below)
		for _, id := range q.Row(y).Nets {
			if id != bga.NoNet {
				below++
			}
		}
	}
	supplies := 0
	rank := 0
	for y := q.NumRows(); y >= 1; y-- {
		row := q.Row(y)
		sites := float64(row.Sites())
		// Displacing a net d slots costs d sections on each of the n−y
		// lines its wire passes above its own, plus ~d segment shifts for
		// the below(y) wires passing its own line, whose runs its via
		// delimits. The +1 anchors nets that have neither (a lone top
		// line), so no cost row is all-zero.
		w := rho * mcmfScale * float64(1+(q.NumRows()-y)+int(belowOf[y]))
		for x, id := range row.Nets {
			if id == bga.NoNet {
				continue
			}
			rank++
			s.nets[rank] = id
			s.line[rank] = int32(y)
			s.vx[rank] = (float64(x) + 0.5) / sites * float64(m)
			s.mul[rank] = w
			isSup := p.Circuit.Net(id).Class == netlist.Power
			s.sup[rank] = isSup
			if isSup {
				supplies++
			}
		}
	}
	// IR spread targets: S power nets want the S evenly-spread ring
	// positions g_k = (k − ½)·m/S — the per-quadrant shadow of the
	// pad-gap proxy's optimum. ir[j] is slot j's distance (in slots) to
	// the nearest target; the scan point and the target ladder both move
	// rightward, so one pointer pass suffices.
	if supplies == 0 || lambda == 0 {
		for j := 1; j <= m; j++ {
			s.ir[j] = 0
		}
	} else {
		span := float64(m) / float64(supplies)
		k := 0
		for j := 1; j <= m; j++ {
			x := float64(j)
			for k+1 < supplies && math.Abs(x-(float64(k+1)+0.5)*span) < math.Abs(x-(float64(k)+0.5)*span) {
				k++
			}
			d := math.Abs(x - (float64(k)+0.5)*span)
			s.ir[j] = int64(lambda*mcmfScale*d + 0.5)
		}
	}
}

// edge is the integerized cost of assigning the rank-i net to slot j.
func (s *MCMFScratch) edge(i, j int) int64 {
	c := int64(s.mul[i]*math.Abs(s.fx[j]-s.vx[i]) + 0.5)
	if s.sup[i] {
		c += s.ir[j]
	}
	return c
}

// solve runs successive shortest augmenting paths with Johnson potentials —
// the dense Jonker–Volgenant form of min-cost max-flow on an assignment
// network: one unit of flow per net, each augmentation a Dijkstra pass
// whose frontier scan doubles as the priority queue. All arithmetic is
// int64 and every tie breaks toward the lowest slot index, so the matching
// is a pure function of the cost table (no seeds, no map iteration).
// O(m³) worst case — microseconds at paper scale (m ≤ 112 per quadrant).
func (s *MCMFScratch) solve() {
	m := s.m
	s.u = grow(s.u, m+1)
	s.v = grow(s.v, m+1)
	s.minv = grow(s.minv, m+1)
	s.matched = grow(s.matched, m+1)
	s.way = grow(s.way, m+1)
	s.used = grow(s.used, m+1)
	for j := 0; j <= m; j++ {
		s.u[j], s.v[j] = 0, 0
		s.matched[j] = 0
	}
	for i := 1; i <= m; i++ {
		s.matched[0] = int32(i)
		j0 := 0
		for j := 0; j <= m; j++ {
			s.minv[j] = mcmfInf
			s.used[j] = false
		}
		for {
			s.used[j0] = true
			i0 := int(s.matched[j0])
			delta := mcmfInf
			j1 := 0
			for j := 1; j <= m; j++ {
				if s.used[j] {
					continue
				}
				if cur := s.edge(i0, j) - s.u[i0] - s.v[j]; cur < s.minv[j] {
					s.minv[j] = cur
					s.way[j] = int32(j0)
				}
				if s.minv[j] < delta {
					delta = s.minv[j]
					j1 = j
				}
			}
			for j := 0; j <= m; j++ {
				if s.used[j] {
					s.u[s.matched[j]] += delta
					s.v[j] -= delta
				} else {
					s.minv[j] -= delta
				}
			}
			j0 = j1
			if s.matched[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := int(s.way[j0])
			s.matched[j0] = s.matched[j1]
			j0 = j1
		}
	}
}

// uncross converts the matching into a monotonic-legal order: each ball
// line keeps the slot set the matching gave it, sorted left to right, and
// fills those slots with its nets in ball order. Within one line the
// congestion cost is a sum of |fx − vx| terms sharing one lines-crossed
// factor, so this sorted re-pairing never increases it (the L1 exchange
// inequality); the matching cost therefore upper-bounds the returned
// order's congestion cost, and at Lambda ≤ 0 the order is exactly optimal
// over all monotonic-legal orders (the oracle test pins this).
func (s *MCMFScratch) uncross(order []netlist.ID) {
	// nets is grouped by line (line n first), so each line's nets occupy
	// one contiguous rank run; walking ranks backward leaves next[y] at
	// the first rank of line y.
	for i := s.m; i >= 1; i-- {
		s.next[s.line[i]] = int32(i)
	}
	for j := 1; j <= s.m; j++ {
		y := s.line[s.matched[j]]
		i := s.next[y]
		order[j-1] = s.nets[i]
		s.next[y] = i + 1
	}
}

// MCMFQuadrantScratch is MCMFQuadrant with caller-owned scratch memory; see
// MCMFScratch. The result is identical to MCMFQuadrant's.
func MCMFQuadrantScratch(p *core.Problem, side bga.Side, opt MCMFOptions, s *MCMFScratch) []netlist.ID {
	q := p.Pkg.Quadrant(side)
	s.prepare(p, q, opt)
	s.solve()
	order := make([]netlist.ID, s.m)
	s.uncross(order)
	return order
}

// MCMFQuadrant runs the min-cost max-flow assignment on one quadrant,
// returning a monotonic-legal finger order.
func MCMFQuadrant(p *core.Problem, side bga.Side, opt MCMFOptions) []netlist.ID {
	return MCMFQuadrantScratch(p, side, opt, &MCMFScratch{})
}

// mcmfScratchPool recycles solver arenas across MCMF calls, so repeated
// plans (copack.Plan's assignment stage, the exchange warm-start hook) are
// allocation-free warm apart from the returned orders.
var mcmfScratchPool = sync.Pool{New: func() any { return new(MCMFScratch) }}

// MCMF runs the min-cost max-flow assignment on every quadrant. One scratch
// arena (pooled across calls) is shared by the four solves.
func MCMF(p *core.Problem, opt MCMFOptions) (*core.Assignment, error) {
	s := mcmfScratchPool.Get().(*MCMFScratch)
	defer mcmfScratchPool.Put(s)
	return perQuadrant(p, func(q *bga.Quadrant) []netlist.ID {
		return MCMFQuadrantScratch(p, q.Side, opt, s)
	})
}

// MCMFOrderCost scores an explicit quadrant order under the same
// integerized edge costs MCMFQuadrant minimizes: Σ_j edge(net at slot j, j).
// This is the oracle hook: enumerate the legal orders, score each with this,
// and the minimum equals MCMFQuadrant's achieved cost when the IR term is
// disabled (with Lambda active the flow solution is an upper-bound
// heuristic — uncrossing may re-pair supply nets within a line).
func MCMFOrderCost(p *core.Problem, side bga.Side, order []netlist.ID, opt MCMFOptions) (int64, error) {
	q := p.Pkg.Quadrant(side)
	s := &MCMFScratch{}
	s.prepare(p, q, opt)
	if len(order) != s.m {
		return 0, fmt.Errorf("assign: order has %d nets, %v quadrant has %d", len(order), side, s.m)
	}
	rank := make(map[netlist.ID]int, s.m)
	for i := 1; i <= s.m; i++ {
		rank[s.nets[i]] = i
	}
	var total int64
	for j := 1; j <= s.m; j++ {
		i, ok := rank[order[j-1]]
		if !ok {
			return 0, fmt.Errorf("assign: net %d not in %v quadrant (or repeated)", order[j-1], side)
		}
		delete(rank, order[j-1])
		total += s.edge(i, j)
	}
	return total, nil
}
