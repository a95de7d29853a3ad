package route

import (
	"context"
	"math/rand"
	"testing"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
)

// Property sweep over random legal orders of random instances: the density
// model's structural invariants hold for every line of every quadrant.
func TestQuickDensityInvariants(t *testing.T) {
	shapes := []gen.TestCircuit{
		{Name: "s16", Fingers: 16, BallSpace: 1, FingerW: 0.1, FingerH: 0.1, FingerSpace: 0.1},
		{Name: "s96", Fingers: 96, BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12},
		{Name: "s160", Fingers: 160, BallSpace: 1.4, FingerW: 0.006, FingerH: 0.3, FingerSpace: 0.1},
	}
	rng := rand.New(rand.NewSource(99))
	for _, sh := range shapes {
		for seed := int64(0); seed < 4; seed++ {
			p := gen.MustBuild(sh, gen.Options{Seed: seed})
			a, err := assign.Random(p, rng)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Evaluate(p, a)
			if err != nil {
				t.Fatal(err)
			}
			checkStatsInvariants(t, p, st)
		}
	}
}

func checkStatsInvariants(t *testing.T, p *core.Problem, st *Stats) {
	t.Helper()
	globalMax := 0
	for _, side := range bga.Sides() {
		qs := st.Quadrants[side]
		q := p.Pkg.Quadrant(side)
		if len(qs.Lines) != q.NumRows() {
			t.Fatalf("%v: %d line stats for %d rows", side, len(qs.Lines), q.NumRows())
		}
		sideMax := 0
		for _, ls := range qs.Lines {
			sum := 0
			for _, v := range ls.SegmentLoad {
				if v < 0 {
					t.Fatalf("%v line %d: negative load", side, ls.Y)
				}
				sum += v
			}
			// Loads sum to the passing count, the max is attained,
			// and the segment count matches the site count + 1.
			if sum != ls.Passing {
				t.Fatalf("%v line %d: loads sum %d != passing %d", side, ls.Y, sum, ls.Passing)
			}
			if len(ls.SegmentLoad) != q.Row(ls.Y).Sites()+1 {
				t.Fatalf("%v line %d: %d segments for %d sites", side, ls.Y, len(ls.SegmentLoad), q.Row(ls.Y).Sites())
			}
			attained := 0
			for _, v := range ls.SegmentLoad {
				if v > attained {
					attained = v
				}
			}
			if attained != ls.Max {
				t.Fatalf("%v line %d: Max %d != attained %d", side, ls.Y, ls.Max, attained)
			}
			// Terminating nets = occupied balls on the line; passing
			// = all nets strictly below.
			if ls.Terminating != q.Row(ls.Y).Occupied() {
				t.Fatalf("%v line %d: terminating %d != occupied %d", side, ls.Y, ls.Terminating, q.Row(ls.Y).Occupied())
			}
			below := 0
			for y := 1; y < ls.Y; y++ {
				below += q.Row(y).Occupied()
			}
			if ls.Passing != below {
				t.Fatalf("%v line %d: passing %d != nets below %d", side, ls.Y, ls.Passing, below)
			}
			if ls.Max > sideMax {
				sideMax = ls.Max
			}
		}
		if sideMax != qs.MaxDensity {
			t.Fatalf("%v: MaxDensity %d != lines max %d", side, qs.MaxDensity, sideMax)
		}
		if qs.Wirelength <= 0 {
			t.Fatalf("%v: non-positive wirelength", side)
		}
		if qs.MaxDensity > globalMax {
			globalMax = qs.MaxDensity
		}
	}
	if st.MaxDensity != globalMax {
		t.Fatalf("package MaxDensity %d != quadrants max %d", st.MaxDensity, globalMax)
	}
}

// Property: realization is always crossing-free and at least as long as the
// flyline bound, for random orders.
func TestQuickRealizeInvariants(t *testing.T) {
	sh := gen.TestCircuit{Name: "s32", Fingers: 32, BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
	rng := rand.New(rand.NewSource(5))
	for seed := int64(0); seed < 6; seed++ {
		p := gen.MustBuild(sh, gen.Options{Seed: seed})
		a, err := assign.Random(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Realize(p, a)
		if err != nil {
			t.Fatal(err)
		}
		if c := crossingCount(r); c != 0 {
			t.Fatalf("seed %d: %d crossings", seed, c)
		}
		if r.TotalLength() < r.Stats.Wirelength-1e-9 {
			t.Fatalf("seed %d: realized %v below flyline bound %v", seed, r.TotalLength(), r.Stats.Wirelength)
		}
		for _, path := range r.Paths {
			if len(path.Layer1) < 2 {
				t.Fatalf("seed %d: degenerate path for net %d", seed, path.Net)
			}
		}
	}
}

// Property: via improvement output always satisfies the via-plan checker
// and never allocates two vias to one site (randomized instances).
func TestQuickViaImprovementLegal(t *testing.T) {
	sh := gen.TestCircuit{Name: "s48", Fingers: 48, BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
	rng := rand.New(rand.NewSource(6))
	for seed := int64(0); seed < 4; seed++ {
		p := gen.MustBuild(sh, gen.Options{Seed: seed, Rows: 3})
		a, err := assign.Random(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, side := range bga.Sides() {
			plan, qs, _, err := ImproveViasContext(context.Background(), p, side, a.Slots[side], 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkViaPlan(p.Pkg.Quadrant(side), a.Slots[side], plan); err != nil {
				t.Fatalf("seed %d %v: %v", seed, side, err)
			}
			if qs.MaxDensity < 0 {
				t.Fatalf("seed %d %v: negative density", seed, side)
			}
		}
	}
}
