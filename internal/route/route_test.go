package route

import (
	"math"
	"testing"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/geom"
	"copack/internal/netlist"
)

// fig5Assignment wraps a Bottom-quadrant order into a full assignment using
// the fixture's filler quadrants in their natural order.
func fig5Assignment(t *testing.T, p *core.Problem, bottom []netlist.ID) *core.Assignment {
	t.Helper()
	var slots [bga.NumSides][]netlist.ID
	slots[bga.Bottom] = bottom
	for _, side := range []bga.Side{bga.Right, bga.Top, bga.Left} {
		slots[side] = p.Pkg.Quadrant(side).Nets()
	}
	a, err := core.NewAssignment(p, slots)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestFig5Densities(t *testing.T) {
	p := gen.Fig5()
	cases := []struct {
		name  string
		order []netlist.ID
		want  int
	}{
		{"random(Fig5A)", gen.Fig5RandomOrder(), 4},
		{"ifa(Fig10)", gen.Fig5IFAOrder(), 2},
		{"dfa(Fig5B)", gen.Fig5DFAOrder(), 2},
	}
	for _, c := range cases {
		qs, err := EvaluateQuadrant(p, bga.Bottom, c.order)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if qs.MaxDensity != c.want {
			t.Errorf("%s: max density = %d, want %d (paper)", c.name, qs.MaxDensity, c.want)
		}
	}
}

func TestFig13Densities(t *testing.T) {
	p := gen.Fig13()
	ifa, err := EvaluateQuadrant(p, bga.Bottom, gen.Fig13IFAOrder())
	if err != nil {
		t.Fatal(err)
	}
	if ifa.MaxDensity != 6 {
		t.Errorf("IFA order density = %d, want 6 (paper)", ifa.MaxDensity)
	}
	dfa, err := EvaluateQuadrant(p, bga.Bottom, gen.Fig13DFAOrder())
	if err != nil {
		t.Fatal(err)
	}
	if dfa.MaxDensity != 5 {
		t.Errorf("DFA order density = %d, want 5 (paper)", dfa.MaxDensity)
	}
}

func TestLineStatDetails(t *testing.T) {
	p := gen.Fig5()
	qs, err := EvaluateQuadrant(p, bga.Bottom, gen.Fig5RandomOrder())
	if err != nil {
		t.Fatal(err)
	}
	// Via line of row 3: nets 11,6,9 terminate; 9 wires pass.
	l3 := qs.Lines[2]
	if l3.Terminating != 3 || l3.Passing != 9 {
		t.Errorf("line 3 terminating/passing = %d/%d, want 3/9", l3.Terminating, l3.Passing)
	}
	// Fingers 10,1,2,3 precede net 11's via at site 1: segment 0 carries 4.
	if l3.SegmentLoad[0] != 4 {
		t.Errorf("line 3 segment 0 = %d, want 4", l3.SegmentLoad[0])
	}
	// The 5 wires right of net 9 (site 3) split 3/2 over segments 3 and 4.
	if l3.SegmentLoad[3] != 3 || l3.SegmentLoad[4] != 2 {
		t.Errorf("line 3 right segments = %d,%d, want 3,2", l3.SegmentLoad[3], l3.SegmentLoad[4])
	}
	// Via line of row 1 has no passing wires.
	l1 := qs.Lines[0]
	if l1.Passing != 0 || l1.Max != 0 || l1.Terminating != 5 {
		t.Errorf("line 1 = %+v, want idle", l1)
	}
	// Segment loads always sum to the passing count.
	for _, ls := range qs.Lines {
		sum := 0
		for _, v := range ls.SegmentLoad {
			sum += v
		}
		if sum != ls.Passing {
			t.Errorf("line %d: loads sum %d != passing %d", ls.Y, sum, ls.Passing)
		}
	}
}

func TestEvaluateRejectsIllegal(t *testing.T) {
	p := gen.Fig5()
	bad := gen.Fig5DFAOrder()
	// Put net 9 (ball x=3, line 3) before net 11 (ball x=1, line 3).
	var i11, i9 int
	for i, id := range bad {
		if id == 11 {
			i11 = i
		}
		if id == 9 {
			i9 = i
		}
	}
	bad[i11], bad[i9] = bad[i9], bad[i11]
	if _, err := EvaluateQuadrant(p, bga.Bottom, bad); err == nil {
		t.Error("illegal order evaluated without error")
	}
}

func TestEvaluateFullPackage(t *testing.T) {
	p := gen.Fig5()
	a := fig5Assignment(t, p, gen.Fig5DFAOrder())
	st, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDensity != 2 {
		t.Errorf("package max density = %d, want 2", st.MaxDensity)
	}
	if st.Wirelength <= 0 {
		t.Error("wirelength should be positive")
	}
	var sum float64
	for _, side := range bga.Sides() {
		sum += st.Quadrants[side].Wirelength
	}
	if math.Abs(sum-st.Wirelength) > 1e-9 {
		t.Errorf("quadrant wirelengths %v do not sum to total %v", sum, st.Wirelength)
	}
}

func TestWirelengthPrefersStraightRuns(t *testing.T) {
	// DFA's order routes closer to straight flylines than the random
	// order, so its total wirelength must be shorter (Table 2's trend).
	p := gen.Fig5()
	rnd, err := EvaluateQuadrant(p, bga.Bottom, gen.Fig5RandomOrder())
	if err != nil {
		t.Fatal(err)
	}
	dfa, err := EvaluateQuadrant(p, bga.Bottom, gen.Fig5DFAOrder())
	if err != nil {
		t.Fatal(err)
	}
	if dfa.Wirelength >= rnd.Wirelength {
		t.Errorf("DFA wirelength %v not shorter than random %v", dfa.Wirelength, rnd.Wirelength)
	}
}

func TestRealizeFig5(t *testing.T) {
	p := gen.Fig5()
	for name, order := range map[string][]netlist.ID{
		"random": gen.Fig5RandomOrder(),
		"dfa":    gen.Fig5DFAOrder(),
	} {
		a := fig5Assignment(t, p, order)
		r, err := Realize(p, a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(r.Paths) != p.Circuit.NumNets() {
			t.Fatalf("%s: %d paths, want %d", name, len(r.Paths), p.Circuit.NumNets())
		}
		if c := crossingCount(r); c != 0 {
			t.Errorf("%s: %d layer-1 crossings, want 0", name, c)
		}
		if r.TotalLength() <= 0 {
			t.Errorf("%s: total length = %v", name, r.TotalLength())
		}
	}
}

func TestRealizePathStructure(t *testing.T) {
	p := gen.Fig5()
	a := fig5Assignment(t, p, gen.Fig5DFAOrder())
	r, err := Realize(p, a)
	if err != nil {
		t.Fatal(err)
	}
	q := p.Pkg.Quadrant(bga.Bottom)
	for _, path := range r.Paths {
		if len(path.Layer1) < 2 {
			t.Fatalf("net %d: degenerate layer-1 path", path.Net)
		}
		if path.Layer1[len(path.Layer1)-1] != path.Via {
			t.Errorf("net %d: layer 1 does not end at via", path.Net)
		}
		if path.Layer2.A != path.Via {
			t.Errorf("net %d: layer 2 does not start at via", path.Net)
		}
		// For the bottom quadrant, ball row y implies the wire crossed
		// rows n..y+1, i.e. the polyline has 2 + (n - y) points.
		if side, b, ok := p.Pkg.Locate(path.Net); ok && side == bga.Bottom {
			want := 2 + (q.NumRows() - b.Y)
			if len(path.Layer1) != want {
				t.Errorf("net %d (row %d): %d points, want %d", path.Net, b.Y, len(path.Layer1), want)
			}
		}
	}
}

func TestRealizeMatchesEvaluateOnTable1(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 7})
	var slots [bga.NumSides][]netlist.ID
	for _, side := range bga.Sides() {
		slots[side] = p.Pkg.Quadrant(side).Nets() // ball order: always legal
	}
	a, err := core.NewAssignment(p, slots)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Realize(p, a)
	if err != nil {
		t.Fatal(err)
	}
	if c := crossingCount(r); c != 0 {
		t.Errorf("ball-order routing has %d crossings", c)
	}
	// Realized length must be at least the flyline estimate.
	if r.TotalLength() < r.Stats.Wirelength*0.99 {
		t.Errorf("realized %v < flyline %v", r.TotalLength(), r.Stats.Wirelength)
	}
}

func TestBallOrderAlwaysLegalProperty(t *testing.T) {
	// Property: for any instance, the "ball order" assignment (nets
	// listed line by line) is monotonic-legal and evaluates cleanly.
	for seed := int64(0); seed < 10; seed++ {
		p := gen.MustBuild(gen.Table1()[1], gen.Options{Seed: seed})
		var slots [bga.NumSides][]netlist.ID
		for _, side := range bga.Sides() {
			slots[side] = p.Pkg.Quadrant(side).Nets()
		}
		a, err := core.NewAssignment(p, slots)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Evaluate(p, a); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// crossingCount returns the number of proper Layer-1 wire crossings in a
// realized routing; a correct monotonic realization has zero within each
// quadrant.
func crossingCount(r *Routing) int {
	count := 0
	for i := 0; i < len(r.Paths); i++ {
		for j := i + 1; j < len(r.Paths); j++ {
			a, b := r.Paths[i].Layer1, r.Paths[j].Layer1
			ra, okA := a.Bounds()
			rb, okB := b.Bounds()
			if !okA || !okB || !ra.Intersects(rb) {
				continue
			}
			crossed := false
			a.Segments(func(sa geom.Seg) {
				if crossed {
					return
				}
				b.Segments(func(sb geom.Seg) {
					if !crossed && sa.CrossesProperly(sb) {
						crossed = true
					}
				})
			})
			if crossed {
				count++
			}
		}
	}
	return count
}
