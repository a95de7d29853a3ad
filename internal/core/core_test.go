package core

import (
	"fmt"
	"strings"
	"testing"

	"copack/internal/bga"
	"copack/internal/netlist"
)

func ids(xs ...int) []netlist.ID {
	out := make([]netlist.ID, len(xs))
	for i, x := range xs {
		out[i] = netlist.ID(x)
	}
	return out
}

// smallProblem builds a 4-quadrant problem with 12 nets per quadrant laid
// out like the paper's Fig 5 example in every quadrant (net ids offset by
// 12 per quadrant).
func smallProblem(t *testing.T) *Problem {
	t.Helper()
	c := netlist.New("small")
	for i := 0; i < 48; i++ {
		class := netlist.Signal
		if i%6 == 1 {
			class = netlist.Power
		}
		c.MustAddNet(netlist.Net{Name: fmt.Sprintf("n%d", i), Class: class, Tier: 1})
	}
	var quads [bga.NumSides]*bga.Quadrant
	for _, side := range bga.Sides() {
		b := int(side) * 12
		q, err := bga.NewQuadrant(side, []bga.Row{
			{Nets: ids(b+11, b+6, b+9, int(bga.NoNet))},
			{Nets: ids(b+1, b+3, b+5, b+8)},
			{Nets: ids(b+10, b+2, b+4, b+7, b+0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		quads[side] = q
	}
	spec := bga.Spec{Name: "small", BallDiameter: 0.2, BallSpace: 1.2, ViaDiameter: 0.1,
		FingerWidth: 0.1, FingerHeight: 0.2, FingerSpace: 0.12, Rows: 3}
	pkg, err := bga.NewPackage(spec, quads)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(c, pkg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// dfaOrder is the paper's Fig 5(B) order for one quadrant, offset by base.
func dfaOrder(base int) []netlist.ID {
	return ids(base+10, base+11, base+1, base+2, base+6, base+3, base+4, base+9, base+5, base+7, base+8, base+0)
}

// randomOrder is the paper's Fig 5(A) random (but monotonic-legal) order.
func randomOrder(base int) []netlist.ID {
	return ids(base+10, base+1, base+2, base+3, base+11, base+6, base+9, base+4, base+5, base+8, base+7, base+0)
}

func fullAssignment(t *testing.T, p *Problem, mk func(base int) []netlist.ID) *Assignment {
	t.Helper()
	var slots [bga.NumSides][]netlist.ID
	for _, side := range bga.Sides() {
		slots[side] = mk(int(side) * 12)
	}
	a, err := NewAssignment(p, slots)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewProblemValidation(t *testing.T) {
	p := smallProblem(t)
	if p.Tiers != 1 {
		t.Errorf("Tiers = %d", p.Tiers)
	}

	// Circuit with wrong net count.
	c := netlist.New("short")
	c.MustAddNet(netlist.Net{Name: "only", Class: netlist.Signal, Tier: 1})
	if _, err := NewProblem(c, p.Pkg, 1); err == nil {
		t.Error("net-count mismatch accepted")
	}
	// Bad tiers.
	if _, err := NewProblem(p.Circuit, p.Pkg, 0); err == nil {
		t.Error("ψ=0 accepted")
	}
	// Circuit using more tiers than ψ.
	c2 := netlist.New("tiered")
	for i := 0; i < 48; i++ {
		c2.MustAddNet(netlist.Net{Name: fmt.Sprintf("n%d", i), Class: netlist.Signal, Tier: 1 + i%2})
	}
	if _, err := NewProblem(c2, p.Pkg, 1); err == nil {
		t.Error("circuit with 2 tiers accepted for ψ=1")
	}
	if _, err := NewProblem(c2, p.Pkg, 2); err != nil {
		t.Errorf("valid 2-tier problem rejected: %v", err)
	}
	if _, err := NewProblem(nil, p.Pkg, 1); err == nil {
		t.Error("nil circuit accepted")
	}
}

func TestNewAssignmentValidation(t *testing.T) {
	p := smallProblem(t)
	a := fullAssignment(t, p, dfaOrder)
	if got := len(a.Slots[bga.Top]); got != 12 {
		t.Errorf("Top slots = %d", got)
	}

	// Wrong length.
	var bad [bga.NumSides][]netlist.ID
	for _, side := range bga.Sides() {
		bad[side] = dfaOrder(int(side) * 12)
	}
	bad[bga.Bottom] = bad[bga.Bottom][:11]
	if _, err := NewAssignment(p, bad); err == nil {
		t.Error("short order accepted")
	}
	// Net from the wrong quadrant.
	bad[bga.Bottom] = dfaOrder(12)
	if _, err := NewAssignment(p, bad); err == nil {
		t.Error("foreign net accepted")
	}
	// Duplicate net.
	dup := dfaOrder(0)
	dup[1] = dup[0]
	bad[bga.Bottom] = dup
	if _, err := NewAssignment(p, bad); err == nil {
		t.Error("duplicate net accepted")
	}
}

func TestAssignmentDefensiveCopy(t *testing.T) {
	p := smallProblem(t)
	var slots [bga.NumSides][]netlist.ID
	for _, side := range bga.Sides() {
		slots[side] = dfaOrder(int(side) * 12)
	}
	a, err := NewAssignment(p, slots)
	if err != nil {
		t.Fatal(err)
	}
	slots[bga.Bottom][0] = 5
	if a.Slots[bga.Bottom][0] != 10 {
		t.Error("assignment aliases caller's slice")
	}
}

func TestClone(t *testing.T) {
	p := smallProblem(t)
	a := fullAssignment(t, p, dfaOrder)
	b := a.Clone()
	b.Swap(bga.Bottom, 1, 2)
	if a.Slots[bga.Bottom][0] == b.Slots[bga.Bottom][0] {
		t.Error("clone aliases original")
	}
}

func TestSlotOf(t *testing.T) {
	p := smallProblem(t)
	a := fullAssignment(t, p, dfaOrder)
	side, slot, ok := a.SlotOf(12 + 11) // Right quadrant's net 11 is on F2
	if !ok || side != bga.Right || slot != 2 {
		t.Errorf("SlotOf = %v,%d,%v", side, slot, ok)
	}
	if _, _, ok := a.SlotOf(999); ok {
		t.Error("found slot for unknown net")
	}
}

func TestSwap(t *testing.T) {
	p := smallProblem(t)
	a := fullAssignment(t, p, dfaOrder)
	a.Swap(bga.Bottom, 1, 12)
	if a.Slots[bga.Bottom][0] != 0 || a.Slots[bga.Bottom][11] != 10 {
		t.Errorf("Swap failed: %v", a.Slots[bga.Bottom])
	}
}

func TestCheckMonotonicAcceptsPaperOrders(t *testing.T) {
	p := smallProblem(t)
	for name, mk := range map[string]func(int) []netlist.ID{
		"random(Fig5A)": randomOrder,
		"dfa(Fig5B)":    dfaOrder,
	} {
		a := fullAssignment(t, p, mk)
		if err := CheckMonotonic(p, a); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

func TestCheckMonotonicRejectsViolations(t *testing.T) {
	p := smallProblem(t)
	a := fullAssignment(t, p, dfaOrder)
	// Swapping nets 11 (ball x=1,y=3) and 9 (ball x=3,y=3) breaks the
	// same-line order: 9 would precede 11 on the fingers.
	bSlots := a.Slots[bga.Bottom]
	var i11, i9 int
	for i, id := range bSlots {
		if id == 11 {
			i11 = i + 1
		}
		if id == 9 {
			i9 = i + 1
		}
	}
	a.Swap(bga.Bottom, i11, i9)
	err := CheckMonotonic(p, a)
	if err == nil {
		t.Fatal("violated order accepted")
	}
	if !strings.Contains(err.Error(), "monotonic") {
		t.Errorf("unhelpful error: %v", err)
	}
}

func TestCheckMonotonicQuadrantForeignNet(t *testing.T) {
	p := smallProblem(t)
	q := p.Pkg.Quadrant(bga.Bottom)
	if err := CheckMonotonicQuadrant(q, ids(99)); err == nil {
		t.Error("foreign net accepted")
	}
}
