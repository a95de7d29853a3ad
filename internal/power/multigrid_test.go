package power

import (
	"context"
	"math"
	"strings"
	"testing"

	"copack/internal/assign"
	"copack/internal/gen"
	"copack/internal/obs"
)

// mgSpec is a large odd-dimension grid that coarsens through several
// levels (65 → 33 → 17 → 9 → 5 → 3).
func mgSpec() GridSpec {
	return GridSpec{
		Nx: 65, Ny: 65, // 4225 nodes
		Width: 100, Height: 100,
		RsX: 0.05, RsY: 0.05,
		Vdd:            1.0,
		CurrentDensity: 1e-5,
	}
}

// boundaryPads returns every boundary node as a pad — the densest realistic
// ring, and one that survives every coarsening level.
func boundaryPads(g GridSpec) []Pad {
	var pads []Pad
	for i := 0; i < g.Nx; i++ {
		pads = append(pads, Pad{I: i, J: 0}, Pad{I: i, J: g.Ny - 1})
	}
	for j := 1; j < g.Ny-1; j++ {
		pads = append(pads, Pad{I: 0, J: j}, Pad{I: g.Nx - 1, J: j})
	}
	return pads
}

// withPads returns a workspace holding g's eliminated system for the pad
// set — the state solve reaches just before it builds the hierarchy.
func withPads(g GridSpec, pads []Pad) *workspace {
	ws := new(workspace)
	ws.isPad = make([]bool, g.Nx*g.Ny)
	for _, p := range pads {
		ws.isPad[p.J*g.Nx+p.I] = true
	}
	ws.eliminate(g)
	return ws
}

// jacobiCG runs CG with the multigrid preconditioner left out — the
// fallback path, forced on a grid that could coarsen — as a same-system
// reference for MGCG.
func jacobiCG(g GridSpec, pads []Pad) *Solution {
	return withPads(g, pads).cg(context.Background(), g, SolveOptions{}.withDefaults(g))
}

// MGCG must land on the same voltages as Jacobi CG: same system, same
// tolerance criterion, different preconditioner.
func TestMGAgreesWithCG(t *testing.T) {
	g := mgSpec()
	pads := ringPads(g)
	cg := jacobiCG(g, pads)
	if !cg.Converged {
		t.Fatalf("CG did not converge: %s", cg.Stopped)
	}
	sol, err := Solve(g, pads, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !sol.Converged {
		t.Fatalf("MGCG did not converge (residual %g after %d iterations)", sol.Residual, sol.Iterations)
	}
	worst := 0.0
	for k := range cg.V {
		if d := math.Abs(cg.V[k] - sol.V[k]); d > worst {
			worst = d
		}
	}
	if worst > 1e-5 {
		t.Errorf("MGCG disagrees with CG by %g", worst)
	}
	if d := math.Abs(cg.MaxDrop() - sol.MaxDrop()); d > 1e-5 {
		t.Errorf("MGCG max drop %g vs CG %g", sol.MaxDrop(), cg.MaxDrop())
	}
}

// The MGCG iteration count must be small and mesh-independent — that is the
// whole point of the multigrid preconditioner. 65×65 at the default 1e-9
// tolerance takes on the order of ten iterations, far below Jacobi CG's.
func TestMGCycleCountIsSmall(t *testing.T) {
	g := mgSpec()
	pads := ringPads(g)
	mg, err := Solve(g, pads, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !mg.Converged {
		t.Fatalf("MGCG did not converge: %s", mg.Stopped)
	}
	if mg.Iterations > 12 {
		t.Errorf("MGCG took %d iterations; the smoother or transfer operators are broken", mg.Iterations)
	}
	if cg := jacobiCG(g, pads); mg.Iterations >= cg.Iterations {
		t.Errorf("MGCG iterations (%d) not below Jacobi CG's (%d)", mg.Iterations, cg.Iterations)
	}
}

// Grids that cannot be coarsened (an even side) fall back to Jacobi CG.
// The fingerprints pin that fallback on the 48×48 chip grid the planner
// used before MGCG became the default (the historical CG's bits) and on
// fpbench's 96×96 solve surface. The recorder must name the path that ran.
func TestMGSingleLevelFallback(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chip := DefaultChipGrid(p)
	chip.Nx, chip.Ny = 48, 48
	surface := GridSpec{
		Nx: 96, Ny: 96, Width: 100, Height: 100,
		RsX: 0.05, RsY: 0.05, Vdd: 1.0, CurrentDensity: 1e-5,
	}
	var surfacePads []Pad
	for i := 0; i < surface.Nx; i += 7 {
		surfacePads = append(surfacePads, Pad{I: i, J: 0}, Pad{I: i, J: surface.Ny - 1})
	}
	cases := []struct {
		name       string
		g          GridSpec
		pads       []Pad
		iterations int
		want       string
	}{
		{"48x48", chip, PadsForAssignment(p, a, chip), 170, "b00380b23ad40647"},
		{"96x96", surface, surfacePads, 221, "8a58ab6b5f50803a"},
	}
	for _, c := range cases {
		rec := obs.NewCollector()
		sol, err := Solve(c.g, c.pads, SolveOptions{Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Iterations != c.iterations {
			t.Errorf("%s: %d iterations, want %d", c.name, sol.Iterations, c.iterations)
		}
		if got := fingerprint(sol); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s (the fallback is no longer the historical CG)", c.name, got, c.want)
		}
		counters := rec.Snapshot().Counters
		if counters["method/cg"] != 1 || counters["method/mgcg"] != 0 {
			t.Errorf("%s: method counters %v, want only method/cg", c.name, counters)
		}
	}
	rec := obs.NewCollector()
	if _, err := Solve(mgSpec(), ringPads(mgSpec()), SolveOptions{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	if counters := rec.Snapshot().Counters; counters["method/mgcg"] != 1 || counters["method/cg"] != 0 {
		t.Errorf("odd grid: method counters %v, want only method/mgcg", counters)
	}
}

// The large solves keep their bits: 65×65 (MGCG) and the even 70×70
// (Jacobi CG) with ringPads, converged and starved at maxIter 3, and the
// 513×513 solve BenchmarkLargeTier times (outside -short).
func TestLargeGridFingerprints(t *testing.T) {
	const n = 513
	large := GridSpec{Nx: n, Ny: n, Width: 1000, Height: 1000, RsX: 0.05, RsY: 0.05, Vdd: 1.0, CurrentDensity: 1e-5}
	var largePads []Pad
	for i := 0; i < n; i += 8 {
		largePads = append(largePads, Pad{I: i, J: 0}, Pad{I: i, J: n - 1}, Pad{I: 0, J: i}, Pad{I: n - 1, J: i})
	}
	cases := []struct {
		name       string
		g          GridSpec
		pads       []Pad
		maxIter    int
		iterations int
		want       string
	}{
		{"65x65", mgSpec(), ringPads(mgSpec()), 0, 6, "42a6a9113cd3ef03"},
		{"65x65/maxiter3", mgSpec(), ringPads(mgSpec()), 3, 3, "d9bda1a47d8985c9"},
		{"70x70", bigSpec(), ringPads(bigSpec()), 0, 114, "a2a5697bf9a4ef7a"},
		{"70x70/maxiter3", bigSpec(), ringPads(bigSpec()), 3, 3, "0142c85f91938345"},
		{"513x513", large, largePads, 0, 8, "b9f4d181db3a200b"},
	}
	for _, c := range cases {
		if c.g.Nx == n && testing.Short() {
			continue
		}
		sol, err := Solve(c.g, c.pads, SolveOptions{maxIter: c.maxIter})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Iterations != c.iterations {
			t.Errorf("%s: %d iterations, want %d", c.name, sol.Iterations, c.iterations)
		}
		if got := fingerprint(sol); got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
	}
}

// Pads at odd coordinates never coincide with a coarse node; the hybrid
// coarsening must carry them as springs (not drop them — that diverges, see
// multigrid.go) and still converge to CG's answer.
func TestMGOddCoordinatePads(t *testing.T) {
	g := baseSpec()
	g.Nx, g.Ny = 9, 9
	pads := []Pad{{I: 1, J: 1}, {I: 7, J: 3}} // odd coordinates: no coincident coarse node
	ws := withPads(g, pads)
	if !ws.buildHierarchy(g) || len(ws.levels) != 3 { // 9 → 5 → 3
		t.Fatalf("hierarchy has %d levels, want 3", len(ws.levels))
	}
	for l, lv := range ws.levels[1:] {
		for _, p := range lv.isPad {
			if p {
				t.Fatalf("level %d has a coarse pad; odd-coordinate pads must coarsen to springs", l+1)
			}
		}
		var total float64
		for _, s := range lv.spring {
			total += s
		}
		if total <= 0 {
			t.Fatalf("level %d has no spring; the coarse system is singular", l+1)
		}
	}
	mg, err := Solve(g, pads, SolveOptions{tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !mg.Converged {
		t.Fatalf("MGCG did not converge with odd-coordinate pads (residual %g)", mg.Residual)
	}
	cg := jacobiCG(g, pads)
	for k := range mg.V {
		if d := math.Abs(mg.V[k] - cg.V[k]); d > 1e-6 {
			t.Fatalf("odd-pad MGCG V[%d] differs from CG by %g", k, d)
		}
	}
}

// Coarsening geometry: table of dimension cases for canCoarsen and the
// resulting hierarchy depth with a full boundary pad ring (0: no
// hierarchy, the Jacobi CG fallback).
func TestMGCoarseningTable(t *testing.T) {
	cases := []struct {
		nx, ny   int
		coarsens bool
		depth    int // hierarchy depth with boundaryPads
	}{
		{2, 2, false, 0},   // minimum legal grid: no hierarchy
		{4, 5, false, 0},   // even x
		{5, 4, false, 0},   // even y
		{3, 3, false, 0},   // odd but below mgMinDim
		{48, 48, false, 0}, // the pre-MGCG chip grid
		{5, 5, true, 2},    // 5 → 3, then 3 is too small
		{7, 7, true, 2},    // 7 → 4 is even: stops after one level
		{9, 9, true, 3},    // 9 → 5 → 3
		{17, 9, true, 3},   // mixed dims coarsen together: 17×9 → 9×5 → 5×3
		{41, 41, true, 4},  // Table 3 / Fig 6: 41 → 21 → 11 → 6
		{49, 49, true, 5},  // DefaultChipGrid: 49 → 25 → 13 → 7 → 4
		{65, 65, true, 6},  // 65 → 33 → 17 → 9 → 5 → 3
		{513, 65, true, 6}, // limited by the smaller dimension
	}
	for _, c := range cases {
		if got := canCoarsen(c.nx, c.ny); got != c.coarsens {
			t.Errorf("canCoarsen(%d,%d) = %v, want %v", c.nx, c.ny, got, c.coarsens)
		}
		g := baseSpec()
		g.Nx, g.Ny = c.nx, c.ny
		ws := withPads(g, boundaryPads(g))
		if built := ws.buildHierarchy(g); built != (c.depth > 0) || len(ws.levels) != c.depth {
			t.Errorf("hierarchy for %dx%d: built %v depth %d, want depth %d", c.nx, c.ny, built, len(ws.levels), c.depth)
		}
	}
}

// GridSpec.Validate table test: each named invalid spec must be rejected
// with a diagnostic mentioning the offending field.
func TestGridSpecValidateTable(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*GridSpec)
		wantErr string
	}{
		{"valid", func(g *GridSpec) {}, ""},
		{"nx too small", func(g *GridSpec) { g.Nx = 1 }, "too small"},
		{"ny zero", func(g *GridSpec) { g.Ny = 0 }, "too small"},
		{"negative width", func(g *GridSpec) { g.Width = -3 }, "die size"},
		{"zero height", func(g *GridSpec) { g.Height = 0 }, "die size"},
		{"zero rsx", func(g *GridSpec) { g.RsX = 0 }, "sheet resistance"},
		{"negative rsy", func(g *GridSpec) { g.RsY = -1 }, "sheet resistance"},
		{"zero vdd", func(g *GridSpec) { g.Vdd = 0 }, "Vdd"},
		{"negative current", func(g *GridSpec) { g.CurrentDensity = -1 }, "current density"},
		{"short current map", func(g *GridSpec) { g.CurrentMap = []float64{1, 2} }, "current map"},
		{"negative map entry", func(g *GridSpec) { g.CurrentMap = negMap(g.Nx * g.Ny) }, "current map"},
		{"nan map entry", func(g *GridSpec) {
			m := make([]float64, g.Nx*g.Ny)
			m[0] = math.NaN()
			g.CurrentMap = m
		}, "current map"},
		{"inf map entry", func(g *GridSpec) {
			m := make([]float64, g.Nx*g.Ny)
			m[3] = math.Inf(1)
			g.CurrentMap = m
		}, "current map"},
		{"nan width", func(g *GridSpec) { g.Width = math.NaN() }, "die size"},
		{"inf height", func(g *GridSpec) { g.Height = math.Inf(1) }, "die size"},
		{"nan rsx", func(g *GridSpec) { g.RsX = math.NaN() }, "sheet resistance"},
		{"inf rsy", func(g *GridSpec) { g.RsY = math.Inf(1) }, "sheet resistance"},
		{"nan vdd", func(g *GridSpec) { g.Vdd = math.NaN() }, "Vdd"},
		{"inf vdd", func(g *GridSpec) { g.Vdd = math.Inf(1) }, "Vdd"},
		{"nan current", func(g *GridSpec) { g.CurrentDensity = math.NaN() }, "current density"},
		{"inf current", func(g *GridSpec) { g.CurrentDensity = math.Inf(1) }, "current density"},
		{"overflowing conductance", func(g *GridSpec) { g.Width, g.RsX = 1e-300, 1e-300 }, "conductance"},
		{"overflowing sink", func(g *GridSpec) { g.Width, g.Height = 1e300, 1e300 }, "sink current"},
		{"overflowing map sink", func(g *GridSpec) {
			g.CurrentDensity = 1e300 / (g.Dx() * g.Dy())
			m := make([]float64, g.Nx*g.Ny)
			m[7] = 1e10
			g.CurrentMap = m
		}, "sink current at node 7"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := baseSpec()
			c.mut(&g)
			err := g.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("invalid spec accepted")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}
