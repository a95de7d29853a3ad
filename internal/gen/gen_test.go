package gen

import (
	"testing"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
)

func TestTable1MatchesPaper(t *testing.T) {
	tcs := Table1()
	if len(tcs) != 5 {
		t.Fatalf("Table1 has %d circuits", len(tcs))
	}
	wantFingers := []int{96, 160, 208, 352, 448}
	wantSpace := []float64{2.0, 1.4, 1.2, 1.2, 1.2}
	for i, tc := range tcs {
		if tc.Fingers != wantFingers[i] {
			t.Errorf("%s fingers = %d, want %d", tc.Name, tc.Fingers, wantFingers[i])
		}
		if tc.BallSpace != wantSpace[i] {
			t.Errorf("%s ball space = %v, want %v", tc.Name, tc.BallSpace, wantSpace[i])
		}
	}
}

func TestBuildAllTable1(t *testing.T) {
	for _, tc := range Table1() {
		p, err := Build(tc, Options{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", tc.Name, err)
		}
		if p.Circuit.NumNets() != tc.Fingers {
			t.Errorf("%s: %d nets, want %d", tc.Name, p.Circuit.NumNets(), tc.Fingers)
		}
		perQuad := tc.Fingers / 4
		for _, side := range bga.Sides() {
			q := p.Pkg.Quadrant(side)
			if q.NumNets() != perQuad {
				t.Errorf("%s %v: %d nets, want %d", tc.Name, side, q.NumNets(), perQuad)
			}
			if q.NumRows() != 4 {
				t.Errorf("%s %v: %d rows", tc.Name, side, q.NumRows())
			}
			// Trapezoid: outer lines wider, one spare site per line.
			occSum := 0
			for y := 1; y <= 4; y++ {
				row := q.Row(y)
				if row.Sites() != row.Occupied()+1 {
					t.Errorf("%s %v line %d: %d sites for %d nets, want one spare",
						tc.Name, side, y, row.Sites(), row.Occupied())
				}
				if y > 1 && row.Occupied() >= q.Row(y-1).Occupied() {
					t.Errorf("%s %v: line %d (%d) not narrower than line %d (%d)",
						tc.Name, side, y, row.Occupied(), y-1, q.Row(y-1).Occupied())
				}
				occSum += row.Occupied()
			}
			if occSum != perQuad {
				t.Errorf("%s %v: %d nets on lines, want %d", tc.Name, side, occSum, perQuad)
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	tc := Table1()[0]
	a := MustBuild(tc, Options{Seed: 42})
	b := MustBuild(tc, Options{Seed: 42})
	c := MustBuild(tc, Options{Seed: 43})
	same, diff := true, false
	for _, side := range bga.Sides() {
		for y := 1; y <= 4; y++ {
			ra, rb, rc := a.Pkg.Quadrant(side).Row(y), b.Pkg.Quadrant(side).Row(y), c.Pkg.Quadrant(side).Row(y)
			for x := range ra.Nets {
				if ra.Nets[x] != rb.Nets[x] {
					same = false
				}
				if ra.Nets[x] != rc.Nets[x] {
					diff = true
				}
			}
		}
	}
	if !same {
		t.Error("same seed produced different instances")
	}
	if !diff {
		t.Error("different seeds produced identical instances")
	}
}

func TestBuildClasses(t *testing.T) {
	p := MustBuild(Table1()[0], Options{Seed: 1})
	byClass := p.Circuit.CountByClass()
	if byClass[netlist.Power] == 0 || byClass[netlist.Ground] == 0 || byClass[netlist.Signal] == 0 {
		t.Errorf("class mix missing a class: %v", byClass)
	}
	if byClass[netlist.Power] < byClass[netlist.Ground] {
		t.Errorf("PowerEvery=5 should beat GroundEvery=7: %v", byClass)
	}

	noPower := MustBuild(Table1()[0], Options{Seed: 1, PowerEvery: -1, GroundEvery: -1})
	if byClass := noPower.Circuit.CountByClass(); byClass[netlist.Power]+byClass[netlist.Ground] != 0 {
		t.Error("disabled supply classes still produced supply nets")
	}
}

func TestBuildTiers(t *testing.T) {
	p := MustBuild(Table1()[0], Options{Seed: 1, Tiers: 4})
	if p.Tiers != 4 || p.Circuit.NumTiers() != 4 {
		t.Errorf("tiers = %d/%d", p.Tiers, p.Circuit.NumTiers())
	}
	tc := p.Circuit.TierCounts()
	for d := 1; d <= 4; d++ {
		if tc[d] != 24 {
			t.Errorf("tier %d has %d nets, want 24", d, tc[d])
		}
	}
}

func TestBuildRejectsBadCounts(t *testing.T) {
	if _, err := Build(TestCircuit{Name: "tiny", Fingers: 15, BallSpace: 1, FingerW: 1, FingerH: 1, FingerSpace: 1}, Options{}); err == nil {
		t.Error("finger count below 4 lines × 4 sides accepted")
	}
	if _, err := Build(TestCircuit{Name: "zero", Fingers: 0, BallSpace: 1, FingerW: 1, FingerH: 1, FingerSpace: 1}, Options{}); err == nil {
		t.Error("zero finger count accepted")
	}
}

func TestBuildOddCounts(t *testing.T) {
	// 138 fingers (the paper's real chip in Fig 6) does not divide by 4;
	// quadrants absorb the remainder.
	p, err := Build(TestCircuit{Name: "fig6", Fingers: 138, BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Circuit.NumNets() != 138 {
		t.Fatalf("nets = %d", p.Circuit.NumNets())
	}
	sizes := map[int]int{}
	for _, side := range bga.Sides() {
		sizes[p.Pkg.Quadrant(side).NumNets()]++
	}
	if sizes[35] != 2 || sizes[34] != 2 {
		t.Errorf("quadrant sizes = %v, want two 35s and two 34s", sizes)
	}
}

func TestFig5Fixture(t *testing.T) {
	p := Fig5()
	q := p.Pkg.Quadrant(bga.Bottom)
	if q.NumNets() != 12 {
		t.Fatalf("fig5 bottom quadrant has %d nets", q.NumNets())
	}
	// Paper: line y=3 has 4 via sites, 3 used.
	if q.Row(3).Sites() != 4 || q.Row(3).Occupied() != 3 {
		t.Errorf("line 3 sites/occupied = %d/%d, want 4/3", q.Row(3).Sites(), q.Row(3).Occupied())
	}
	if b, _ := q.Ball(6); b != (bga.BallRef{X: 2, Y: 3}) {
		t.Errorf("net 6 ball = %v", b)
	}
	if b, _ := q.Ball(0); b != (bga.BallRef{X: 5, Y: 1}) {
		t.Errorf("net 0 ball = %v", b)
	}
	// All three paper orders must be monotonic-legal.
	for name, order := range map[string][]netlist.ID{
		"random": Fig5RandomOrder(), "ifa": Fig5IFAOrder(), "dfa": Fig5DFAOrder(),
	} {
		if err := core.CheckMonotonicQuadrant(q, order); err != nil {
			t.Errorf("%s order illegal: %v", name, err)
		}
	}
}

func TestFig13Fixture(t *testing.T) {
	p := Fig13()
	q := p.Pkg.Quadrant(bga.Bottom)
	if q.NumNets() != 20 {
		t.Fatalf("fig13 bottom quadrant has %d nets", q.NumNets())
	}
	widths := []int{9, 7, 5, 3} // y = 1..4, one spare site per line
	for y := 1; y <= 4; y++ {
		if got := q.Row(y).Sites(); got != widths[y-1] {
			t.Errorf("line %d sites = %d, want %d", y, got, widths[y-1])
		}
	}
	for name, order := range map[string][]netlist.ID{
		"ifa": Fig13IFAOrder(), "dfa": Fig13DFAOrder(),
	} {
		if len(order) != 20 {
			t.Fatalf("%s order has %d nets", name, len(order))
		}
		if err := core.CheckMonotonicQuadrant(q, order); err != nil {
			t.Errorf("%s order illegal: %v", name, err)
		}
	}
}

func TestNames(t *testing.T) {
	p := Fig13()
	names := Names(p.Circuit, Fig13IFAOrder())
	if names[0] != "13" || names[19] != "20" {
		t.Errorf("Names = %v", names)
	}
}
