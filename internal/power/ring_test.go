package power

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"copack/internal/assign"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/netlist"
)

func table1Problem(t *testing.T) (*core.Problem, *core.Assignment) {
	t.Helper()
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 3})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p, a
}

func TestRingPositionsSortedAndCounted(t *testing.T) {
	p, a := table1Problem(t)
	ts := RingPositions(p, a)
	if len(ts) != p.Circuit.CountByClass()[netlist.Power] {
		t.Errorf("%d positions, want %d power nets", len(ts), p.Circuit.CountByClass()[netlist.Power])
	}
	if !sort.Float64sAreSorted(ts) {
		t.Error("positions not sorted")
	}
	for _, v := range ts {
		if v < 0 || v >= 4 {
			t.Errorf("position %v outside [0,4)", v)
		}
	}
}

func TestProxyCostPrefersUniform(t *testing.T) {
	uniform := []float64{0.5, 1.5, 2.5, 3.5}
	clustered := []float64{0.1, 0.2, 0.3, 0.4}
	if ProxyCost(uniform) >= ProxyCost(clustered) {
		t.Errorf("uniform %v not cheaper than clustered %v", ProxyCost(uniform), ProxyCost(clustered))
	}
	// Uniform n-pad cost is n·(4/n)² = 16/n.
	if got, want := ProxyCost(uniform), 4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("uniform cost = %v, want %v", got, want)
	}
	if got := ProxyCost(nil); got != 16 {
		t.Errorf("empty ring cost = %v, want 16", got)
	}
	if got := ProxyCost([]float64{1}); got != 16 {
		t.Errorf("single pad cost = %v, want 16 (one full-circle gap)", got)
	}
}

func TestProxyCostRotationInvariant(t *testing.T) {
	ts := []float64{0.2, 0.9, 1.4, 3.1}
	base := ProxyCost(ts)
	for _, shift := range []float64{0.3, 1.0, 2.7} {
		rot := make([]float64, len(ts))
		for i, v := range ts {
			rot[i] = math.Mod(v+shift, 4)
		}
		sort.Float64s(rot)
		if got := ProxyCost(rot); math.Abs(got-base) > 1e-9 {
			t.Errorf("shift %v: cost %v != %v", shift, got, base)
		}
	}
}

func TestPadsForAssignmentOnBoundary(t *testing.T) {
	p, a := table1Problem(t)
	g := DefaultChipGrid(p)
	pads := PadsForAssignment(p, a, g)
	if len(pads) != p.Circuit.CountByClass()[netlist.Power] {
		t.Fatalf("%d pads, want %d", len(pads), p.Circuit.CountByClass()[netlist.Power])
	}
	for _, pad := range pads {
		onBoundary := pad.I == 0 || pad.I == g.Nx-1 || pad.J == 0 || pad.J == g.Ny-1
		if !onBoundary {
			t.Errorf("pad %v not on boundary", pad)
		}
	}
}

func TestSolveAssignment(t *testing.T) {
	p, a := table1Problem(t)
	g := DefaultChipGrid(p)
	sol, err := SolveAssignment(p, a, g, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MaxDrop() <= 0 || sol.MaxDrop() > g.Vdd {
		t.Errorf("MaxDrop = %v", sol.MaxDrop())
	}
}

func TestDefaultChipGridValid(t *testing.T) {
	p, _ := table1Problem(t)
	if err := DefaultChipGrid(p).Validate(); err != nil {
		t.Fatal(err)
	}
}

// The compact proxy must rank assignments consistently with the full
// solver most of the time: over random assignment pairs, concordant
// (proxy and solver agree which is worse) must clearly outnumber
// discordant pairs. This is the justification for using the proxy inside
// simulated annealing.
func TestProxyCorrelatesWithSolver(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 9})
	g := DefaultChipGrid(p)
	g.Nx, g.Ny = 24, 24
	rng := rand.New(rand.NewSource(17))

	type sample struct{ proxy, drop float64 }
	var samples []sample
	for k := 0; k < 12; k++ {
		a, err := assign.Random(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := SolveAssignment(p, a, g, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, sample{ProxyForAssignment(p, a), sol.MaxDrop()})
	}
	concordant, discordant := 0, 0
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			dp := samples[i].proxy - samples[j].proxy
			dd := samples[i].drop - samples[j].drop
			switch {
			case dp*dd > 0:
				concordant++
			case dp*dd < 0:
				discordant++
			}
		}
	}
	if concordant <= discordant {
		t.Errorf("proxy does not track solver: %d concordant vs %d discordant", concordant, discordant)
	}
}
