package power

import (
	"context"
	"sort"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
)

// The paper assumes the finger order and the pad order are the same, so an
// assignment fixes the position of every pad on the die's pad ring. This
// file maps that ring onto the power grid's boundary nodes and implements
// the compact Δx/Δy estimate the exchange method optimizes: by Eq (1), the
// drop seen between two supply pads grows with their separation, so the
// spread of the gaps between consecutive supply pads is a fast, monotone
// stand-in for the full solve.

// ringT returns the perimeter parameter of a slot: quadrant sides follow
// each other counterclockwise (bottom, right, top, left), each spanning one
// unit, so t ∈ [0, 4).
func ringT(side bga.Side, slot, slots int) float64 {
	return float64(side) + (float64(slot)-0.5)/float64(slots)
}

// RingPositions returns the sorted perimeter positions (t ∈ [0,4)) of the
// assignment's pads whose nets match one of the given classes. With no
// classes it defaults to Power, matching the pads the paper's 2-D exchange
// moves.
func RingPositions(p *core.Problem, a *core.Assignment, classes ...netlist.NetClass) []float64 {
	match := classSet(classes)
	var ts []float64
	for _, side := range bga.Sides() {
		slots := a.Slots[side]
		for i, id := range slots {
			if match[p.Circuit.Net(id).Class] {
				ts = append(ts, ringT(side, i+1, len(slots)))
			}
		}
	}
	sort.Float64s(ts)
	return ts
}

func classSet(classes []netlist.NetClass) map[netlist.NetClass]bool {
	match := make(map[netlist.NetClass]bool, 3)
	if len(classes) == 0 {
		match[netlist.Power] = true
		return match
	}
	for _, c := range classes {
		match[c] = true
	}
	return match
}

// ProxyCost is the compact IR-drop estimate: the sum of squared circular
// gaps (period 4) between consecutive ring positions. It is minimal when
// the pads are equally spaced and grows quadratically as they cluster,
// mirroring how Eq (1)'s drop grows with pad separation Δx, Δy. It returns
// +Inf-free results for any input; an empty or single-pad ring costs 16
// (one full-perimeter gap squared).
func ProxyCost(ts []float64) float64 {
	const period = 4.0
	if len(ts) == 0 {
		return period * period
	}
	cost := 0.0
	for i := 1; i < len(ts); i++ {
		g := ts[i] - ts[i-1]
		cost += g * g
	}
	wrap := period - ts[len(ts)-1] + ts[0]
	return cost + wrap*wrap
}

// ProxyForAssignment computes ProxyCost directly from an assignment.
func ProxyForAssignment(p *core.Problem, a *core.Assignment, classes ...netlist.NetClass) float64 {
	return ProxyCost(RingPositions(p, a, classes...))
}

// PadsForAssignment maps the assignment's supply pads onto the boundary
// nodes of the power grid: slot positions along each die edge project
// proportionally onto the edge's node range, walking the ring
// counterclockwise (bottom edge west→east, right edge south→north, top edge
// east→west, left edge north→south). Multiple pads may share a node on
// coarse grids.
func PadsForAssignment(p *core.Problem, a *core.Assignment, g GridSpec, classes ...netlist.NetClass) []Pad {
	match := classSet(classes)
	var pads []Pad
	for _, side := range bga.Sides() {
		slots := a.Slots[side]
		for i, id := range slots {
			if !match[p.Circuit.Net(id).Class] {
				continue
			}
			frac := (float64(i+1) - 0.5) / float64(len(slots))
			pads = append(pads, edgeNode(side, frac, g))
		}
	}
	return pads
}

// edgeNode projects an edge fraction onto a boundary node.
func edgeNode(side bga.Side, frac float64, g GridSpec) Pad {
	roundTo := func(f float64, n int) int {
		k := int(f*float64(n-1) + 0.5)
		if k < 0 {
			k = 0
		}
		if k > n-1 {
			k = n - 1
		}
		return k
	}
	switch side {
	case bga.Bottom:
		return Pad{I: roundTo(frac, g.Nx), J: 0}
	case bga.Right:
		return Pad{I: g.Nx - 1, J: roundTo(frac, g.Ny)}
	case bga.Top:
		return Pad{I: roundTo(1-frac, g.Nx), J: g.Ny - 1}
	default: // bga.Left
		return Pad{I: 0, J: roundTo(1-frac, g.Ny)}
	}
}

// SolveAssignment is a convenience that maps an assignment's supply pads
// onto the grid and solves it.
func SolveAssignment(p *core.Problem, a *core.Assignment, g GridSpec, opt SolveOptions, classes ...netlist.NetClass) (*Solution, error) {
	return Solve(g, PadsForAssignment(p, a, g, classes...), opt)
}

// SolveAssignmentContext is SolveAssignment with cancellation (see
// SolveContext).
func SolveAssignmentContext(ctx context.Context, p *core.Problem, a *core.Assignment, g GridSpec, opt SolveOptions, classes ...netlist.NetClass) (*Solution, error) {
	return SolveContext(ctx, g, PadsForAssignment(p, a, g, classes...), opt)
}

// DefaultChipGrid returns a reasonable grid spec for experiments: a square
// core whose size matches the package's finger ring, a 49×49 mesh (odd, so
// the multigrid hierarchy coarsens it 49 → 25 → 13 → 7 → 4), 0.5 Ω/sq
// effective sheet resistance both ways, 1 V supply and a current density
// calibrated so that well-spread pads see drops in the tens of millivolts
// (the regime of the paper's Fig 6).
func DefaultChipGrid(p *core.Problem) GridSpec {
	side := 2 * p.Pkg.RingHalf()
	if !finitePositive(side) {
		side = 100
	}
	return GridSpec{
		Nx: 49, Ny: 49,
		Width: side, Height: side,
		RsX: 0.5, RsY: 0.5,
		Vdd:            1.0,
		CurrentDensity: 0.35 / (side * side), // 0.35 A total draw
	}
}
