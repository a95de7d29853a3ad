package drc

import (
	"math/rand"
	"strings"
	"testing"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/gen"
)

func spec() bga.Spec {
	return bga.Spec{Name: "t", BallDiameter: 0.2, BallSpace: 1.2, ViaDiameter: 0.1,
		FingerWidth: 0.1, FingerHeight: 0.2, FingerSpace: 0.12, Rows: 4}
}

func TestRulesDefaults(t *testing.T) {
	r := rules{}.withDefaults(spec())
	if r.wireWidth != 0.05 || r.wireSpace != 0.05 {
		t.Errorf("defaults = %+v", r)
	}
	if r.wirePitch() != 0.1 {
		t.Errorf("pitch = %v", r.wirePitch())
	}
	custom := rules{wireWidth: 0.2, wireSpace: 0.1}.withDefaults(spec())
	if custom.wireWidth != 0.2 || custom.wireSpace != 0.1 {
		t.Errorf("custom rules overridden: %+v", custom)
	}
}

func TestSegmentCapacity(t *testing.T) {
	s := spec() // pitch 1.4, via 0.1 → free 1.4-0.1-0.05 = 1.25; wire pitch 0.1 → 12
	if got := segmentCapacity(s, rules{}); got != 12 {
		t.Errorf("capacity = %d, want 12", got)
	}
	// Fat wires shrink capacity.
	if got := segmentCapacity(s, rules{wireWidth: 0.5, wireSpace: 0.5}); got != 0 {
		t.Errorf("fat wire capacity = %d, want 0", got)
	}
	// Giant via leaves nothing.
	s2 := s
	s2.ViaDiameter = 1.39
	if got := segmentCapacity(s2, rules{wireWidth: 0.05, wireSpace: 0.05}); got != 0 {
		t.Errorf("giant-via capacity = %d", got)
	}
}

func TestCheckSpecCleanAndDirty(t *testing.T) {
	if rep := checkSpec(spec(), rules{}); !rep.OK() {
		t.Errorf("clean spec flagged: %v", rep.Violations)
	}
	bad := spec()
	bad.Rows = 0
	rep := checkSpec(bad, rules{})
	if rep.OK() {
		t.Error("invalid spec passed")
	}
	// A spec whose gap fits no wire is a spec violation.
	tight := spec()
	rep = checkSpec(tight, rules{wireWidth: 2, wireSpace: 2})
	if rep.OK() {
		t.Error("zero-capacity spec passed")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Kind == KindSpec && strings.Contains(v.String(), "cannot carry") {
			found = true
		}
	}
	if !found {
		t.Errorf("missing capacity spec violation: %v", rep.Violations)
	}
}

func TestCheckCleanAssignment(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Check(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("DFA plan violates rules: %v", rep.Violations)
	}
	if rep.SegmentCapacity <= 0 {
		t.Errorf("capacity = %d", rep.SegmentCapacity)
	}
}

func TestCheckFlagsOverloadedSegments(t *testing.T) {
	// With wide wires the capacity drops to a couple of tracks; a random
	// order then overloads some segment.
	p := gen.MustBuild(gen.Table1()[4], gen.Options{Seed: 3})
	rng := rand.New(rand.NewSource(3))
	a, err := assign.Random(p, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Capacity 6 at ball pitch 1.4: above DFA's max density (4) but far
	// below a random order's (~13).
	wide := rules{wireWidth: 0.1, wireSpace: 0.1}
	rep, err := check(p, a, wide)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("random plan with capacity-2 rules should violate")
	}
	sawCapacity := false
	for _, v := range rep.Violations {
		if v.Kind == KindCapacity {
			sawCapacity = true
			if !strings.Contains(v.Where, "line") {
				t.Errorf("capacity violation lacks location: %v", v)
			}
		}
	}
	if !sawCapacity {
		t.Errorf("no capacity violations: %v", rep.Violations)
	}

	// The DFA order passes the same rules clean — relieving design-rule
	// pressure is exactly why DFA exists.
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dfaRep, err := check(p, dfaA, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !dfaRep.OK() {
		t.Errorf("DFA violates capacity-6 rules: %v", dfaRep.Violations)
	}
}

func TestCheckFlagsIllegalAssignment(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Break the bottom quadrant's top line order.
	q := p.Pkg.Quadrant(bga.Bottom)
	y := q.NumRows()
	var first, second = bga.NoNet, bga.NoNet
	for _, id := range q.Row(y).Nets {
		if id == bga.NoNet {
			continue
		}
		if first == bga.NoNet {
			first = id
		} else {
			second = id
			break
		}
	}
	_, si, _ := a.SlotOf(first)
	_, sj, _ := a.SlotOf(second)
	a.Swap(bga.Bottom, si, sj)
	rep, err := Check(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("illegal assignment passed DRC")
	}
	if rep.Violations[len(rep.Violations)-1].Kind != KindLegality {
		t.Errorf("want legality violation, got %v", rep.Violations)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: KindCapacity, Where: "bottom line 3 segment 2", Msg: "too many wires"}
	s := v.String()
	if !strings.Contains(s, "capacity") || !strings.Contains(s, "segment 2") {
		t.Errorf("String = %q", s)
	}
}
