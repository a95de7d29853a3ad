package route

import (
	"context"
	"math/rand"
	"testing"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/netlist"
)

func TestEvaluateQuadrantViasDefaultMatchesEvaluate(t *testing.T) {
	p := gen.Fig5()
	for _, order := range [][]netlist.ID{gen.Fig5RandomOrder(), gen.Fig5DFAOrder()} {
		base, err := EvaluateQuadrant(p, bga.Bottom, order)
		if err != nil {
			t.Fatal(err)
		}
		vias, err := EvaluateQuadrantVias(p, bga.Bottom, order, nil)
		if err != nil {
			t.Fatal(err)
		}
		if base.MaxDensity != vias.MaxDensity || base.Wirelength != vias.Wirelength {
			t.Errorf("empty plan differs: %v/%v vs %v/%v",
				base.MaxDensity, base.Wirelength, vias.MaxDensity, vias.Wirelength)
		}
	}
}

func TestViaPlanValidation(t *testing.T) {
	p := gen.Fig5()
	order := gen.Fig5DFAOrder()

	// Out-of-range site.
	if _, err := EvaluateQuadrantVias(p, bga.Bottom, order, ViaPlan{11: 9}); err == nil {
		t.Error("out-of-range site accepted")
	}
	// Collision: net 11 (ball x=1, line 3) onto net 6's site (x=2).
	if _, err := EvaluateQuadrantVias(p, bga.Bottom, order, ViaPlan{11: 2}); err == nil {
		t.Error("via collision accepted")
	}
	// Order inversion: net 9 (x=3, line 3) left of net 6 (x=2).
	if _, err := EvaluateQuadrantVias(p, bga.Bottom, order, ViaPlan{9: 1}); err == nil {
		t.Error("via order inversion accepted")
	}
	// A legal shift: net 9 to the spare 4th site of line 3.
	qs, err := EvaluateQuadrantVias(p, bga.Bottom, order, ViaPlan{9: 4})
	if err != nil {
		t.Fatalf("legal shift rejected: %v", err)
	}
	if qs.MaxDensity <= 0 {
		t.Error("no density computed")
	}
}

func TestViaShiftFig5IsAlreadyOptimal(t *testing.T) {
	// On the Fig 5 random order no via plan can beat density 4 (the left
	// region needs the first pin at site >= 2 while the right region
	// needs the last pin <= 3, and three increasing pins cannot satisfy
	// both on a 4-site line). ImproveViasContext must not worsen anything and
	// must stop at 4.
	p := gen.Fig5()
	order := gen.Fig5RandomOrder()
	_, improved, _, err := ImproveViasContext(context.Background(), p, bga.Bottom, order, 0)
	if err != nil {
		t.Fatal(err)
	}
	if improved.MaxDensity != 4 {
		t.Errorf("density = %d, want the provable optimum 4", improved.MaxDensity)
	}
}

// viaShiftProblem builds a quadrant where shifting one via strictly helps:
// line 2 holds a single ball A at x=1 with two spare sites; line 1 holds
// B,C,D,E. Under the order B,C,A,D,E the wires B,C squeeze left of A's
// default via (density 2); moving A's via one site right balances them.
func viaShiftProblem(t *testing.T) (*core.Problem, []netlist.ID) {
	t.Helper()
	c := netlist.New("viashift")
	for _, name := range []string{"A", "B", "C", "D", "E"} {
		c.MustAddNet(netlist.Net{Name: name, Class: netlist.Signal, Tier: 1})
	}
	for i := 0; i < 6; i++ {
		c.MustAddNet(netlist.Net{Name: string(rune('a' + i)), Class: netlist.Signal, Tier: 1})
	}
	no := bga.NoNet
	bq, err := bga.NewQuadrant(bga.Bottom, []bga.Row{
		{Nets: []netlist.ID{0, no, no}},
		{Nets: []netlist.ID{1, 2, 3, 4, no}},
	})
	if err != nil {
		t.Fatal(err)
	}
	filler := func(side bga.Side, base int) *bga.Quadrant {
		q, err := bga.NewQuadrant(side, []bga.Row{
			{Nets: []netlist.ID{netlist.ID(base)}},
			{Nets: []netlist.ID{netlist.ID(base + 1)}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	quads := [bga.NumSides]*bga.Quadrant{
		bga.Bottom: bq,
		bga.Right:  filler(bga.Right, 5),
		bga.Top:    filler(bga.Top, 7),
		bga.Left:   filler(bga.Left, 9),
	}
	spec := bga.Spec{Name: "viashift", BallDiameter: 0.2, BallSpace: 1.2, ViaDiameter: 0.1,
		FingerWidth: 0.1, FingerHeight: 0.2, FingerSpace: 0.12, Rows: 2}
	pkg, err := bga.NewPackage(spec, quads)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(c, pkg, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Order B,C,A,D,E (IDs 1,2,0,3,4).
	return p, []netlist.ID{1, 2, 0, 3, 4}
}

func TestViaShiftChangesDensity(t *testing.T) {
	p, order := viaShiftProblem(t)
	base, err := EvaluateQuadrant(p, bga.Bottom, order)
	if err != nil {
		t.Fatal(err)
	}
	if base.MaxDensity != 2 {
		t.Fatalf("baseline density = %d, want 2", base.MaxDensity)
	}
	plan, improved, _, err := ImproveViasContext(context.Background(), p, bga.Bottom, order, 0)
	if err != nil {
		t.Fatal(err)
	}
	if improved.MaxDensity != 1 {
		t.Errorf("via improvement density = %d, want 1", improved.MaxDensity)
	}
	if got := plan[0]; got != 2 {
		t.Errorf("net A's via at site %d, want 2", got)
	}
}

func TestImproveViasNeverWorsens(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := gen.MustBuild(gen.Table1()[1], gen.Options{Seed: seed})
		rng := rand.New(rand.NewSource(seed))
		a, err := assign.Random(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range bga.Sides() {
			base, err := EvaluateQuadrant(p, side, a.Slots[side])
			if err != nil {
				t.Fatal(err)
			}
			plan, improved, _, err := ImproveViasContext(context.Background(), p, side, a.Slots[side], 4)
			if err != nil {
				t.Fatal(err)
			}
			if improved.MaxDensity > base.MaxDensity {
				t.Errorf("seed %d %v: worsened %d -> %d", seed, side, base.MaxDensity, improved.MaxDensity)
			}
			// The returned plan must re-evaluate to the same stats.
			again, err := EvaluateQuadrantVias(p, side, a.Slots[side], plan)
			if err != nil {
				t.Fatalf("seed %d %v: plan became illegal: %v", seed, side, err)
			}
			if again.MaxDensity != improved.MaxDensity {
				t.Errorf("seed %d %v: stats not reproducible: %d vs %d",
					seed, side, again.MaxDensity, improved.MaxDensity)
			}
		}
	}
}

func TestImproveViasAll(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 2})
	var slots [bga.NumSides][]netlist.ID
	for _, side := range bga.Sides() {
		slots[side] = p.Pkg.Quadrant(side).Nets()
	}
	a, err := core.NewAssignment(p, slots)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	plans, st, _, err := ImproveViasAllContext(context.Background(), p, a, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDensity > base.MaxDensity {
		t.Errorf("package density worsened: %d -> %d", base.MaxDensity, st.MaxDensity)
	}
	for _, side := range bga.Sides() {
		if plans[side] == nil {
			t.Errorf("%v: nil plan", side)
		}
	}
}

func TestViaPlanClone(t *testing.T) {
	p := ViaPlan{1: 2}
	c := p.Clone()
	c[1] = 5
	if p[1] != 2 {
		t.Error("Clone aliases original")
	}
}
