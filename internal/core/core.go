// Package core defines the chip-package co-design problem the paper solves
// and the object every algorithm in this repository produces or consumes:
// an assignment of nets to finger/pad locations.
//
// A Problem couples a circuit (the nets), a BGA package (the fixed
// net-to-bump-ball mapping and the geometry) and the stacking tier count ψ.
// An Assignment is, per quadrant, the left-to-right order of nets on the
// finger row; because the paper assumes the finger order and the pad order
// are the same, this single permutation also fixes the chip pad ring.
package core

import (
	"fmt"

	"copack/internal/bga"
	"copack/internal/netlist"
)

// Problem is one co-design instance.
type Problem struct {
	Circuit *netlist.Circuit
	Pkg     *bga.Package
	// Tiers is ψ, the number of stacked dies; 1 means a 2-D IC.
	Tiers int
}

// NewProblem validates that the circuit and package describe the same nets:
// every circuit net must sit on exactly one ball, every placed ball must
// name a circuit net, and the circuit's tier usage must fit within Tiers.
func NewProblem(c *netlist.Circuit, p *bga.Package, tiers int) (*Problem, error) {
	if c == nil || p == nil {
		return nil, fmt.Errorf("core: nil circuit or package")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if tiers < 1 {
		return nil, fmt.Errorf("core: tier count ψ=%d, want >= 1", tiers)
	}
	if got := c.NumTiers(); got > tiers {
		return nil, fmt.Errorf("core: circuit uses %d tiers but ψ=%d", got, tiers)
	}
	if p.NumNets() != c.NumNets() {
		return nil, fmt.Errorf("core: package places %d nets, circuit has %d", p.NumNets(), c.NumNets())
	}
	for id := netlist.ID(0); int(id) < c.NumNets(); id++ {
		if _, _, ok := p.Locate(id); !ok {
			return nil, fmt.Errorf("core: net %d (%s) has no bump ball", id, c.Net(id).Name)
		}
	}
	return &Problem{Circuit: c, Pkg: p, Tiers: tiers}, nil
}

// Assignment holds, for each quadrant, the nets on the finger slots from
// left to right: Slots[side][a-1] is the net on finger F_a.
type Assignment struct {
	Slots [bga.NumSides][]netlist.ID
}

// NewAssignment builds an assignment from per-quadrant orders and verifies
// each order is a permutation of exactly the nets placed in that quadrant.
func NewAssignment(p *Problem, slots [bga.NumSides][]netlist.ID) (*Assignment, error) {
	a := &Assignment{}
	for _, side := range bga.Sides() {
		q := p.Pkg.Quadrant(side)
		order := slots[side]
		if len(order) != q.NumSlots() {
			return nil, fmt.Errorf("core: %v order has %d slots, quadrant has %d", side, len(order), q.NumSlots())
		}
		seen := make(map[netlist.ID]bool, len(order))
		for i, id := range order {
			if _, ok := q.Ball(id); !ok {
				return nil, fmt.Errorf("core: %v slot %d holds net %d which is not in this quadrant", side, i+1, id)
			}
			if seen[id] {
				return nil, fmt.Errorf("core: %v order repeats net %d", side, id)
			}
			seen[id] = true
		}
		cp := make([]netlist.ID, len(order))
		copy(cp, order)
		a.Slots[side] = cp
	}
	return a, nil
}

// Clone returns a deep copy of the assignment.
func (a *Assignment) Clone() *Assignment {
	out := &Assignment{}
	for i, s := range a.Slots {
		cp := make([]netlist.ID, len(s))
		copy(cp, s)
		out.Slots[i] = cp
	}
	return out
}

// SlotOf returns the quadrant and 1-based finger index of a net, or ok=false
// if the net is not assigned.
func (a *Assignment) SlotOf(id netlist.ID) (bga.Side, int, bool) {
	for _, side := range bga.Sides() {
		for i, n := range a.Slots[side] {
			if n == id {
				return side, i + 1, true
			}
		}
	}
	return 0, 0, false
}

// Swap exchanges the nets on slots i and j (1-based) of a quadrant.
func (a *Assignment) Swap(side bga.Side, i, j int) {
	s := a.Slots[side]
	s[i-1], s[j-1] = s[j-1], s[i-1]
}

// CheckMonotonic verifies the via-order rule that guarantees a legal
// monotonic routing exists (Section 3.1 of the paper): on every horizontal
// line, the nets whose balls sit on that line must appear in the same left-
// to-right order on the fingers as their ball x coordinates. It returns nil
// when the assignment is routable.
func CheckMonotonic(p *Problem, a *Assignment) error {
	for _, side := range bga.Sides() {
		q := p.Pkg.Quadrant(side)
		if err := CheckMonotonicQuadrant(q, a.Slots[side]); err != nil {
			return err
		}
	}
	return nil
}

// CheckMonotonicQuadrant is CheckMonotonic for a single quadrant order.
func CheckMonotonicQuadrant(q *bga.Quadrant, order []netlist.ID) error {
	// lastX[y] tracks the ball x of the most recent (in finger order) net
	// terminating on line y.
	lastX := make([]int, q.NumRows()+1)
	for slot, id := range order {
		b, ok := q.Ball(id)
		if !ok {
			return fmt.Errorf("core: %v slot %d: net %d not in quadrant", q.Side, slot+1, id)
		}
		if prev := lastX[b.Y]; prev >= b.X {
			return fmt.Errorf("core: %v line %d: net %d at slot %d has ball x=%d, not right of previous ball x=%d (monotonic rule violated)",
				q.Side, b.Y, id, slot+1, b.X, prev)
		}
		lastX[b.Y] = b.X
	}
	return nil
}
