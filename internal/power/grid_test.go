package power

import (
	"math"
	"testing"
)

func baseSpec() GridSpec {
	return GridSpec{
		Nx: 21, Ny: 21,
		Width: 100, Height: 100,
		RsX: 0.05, RsY: 0.05,
		Vdd:            1.0,
		CurrentDensity: 1e-5,
	}
}

func leftEdgePads(g GridSpec) []Pad {
	pads := make([]Pad, g.Ny)
	for j := 0; j < g.Ny; j++ {
		pads[j] = Pad{I: 0, J: j}
	}
	return pads
}

func TestSpecValidate(t *testing.T) {
	if err := baseSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	muts := []func(*GridSpec){
		func(g *GridSpec) { g.Nx = 1 },
		func(g *GridSpec) { g.Ny = 0 },
		func(g *GridSpec) { g.Width = 0 },
		func(g *GridSpec) { g.Height = -1 },
		func(g *GridSpec) { g.RsX = 0 },
		func(g *GridSpec) { g.RsY = -2 },
		func(g *GridSpec) { g.Vdd = 0 },
		func(g *GridSpec) { g.CurrentDensity = -1 },
		func(g *GridSpec) { g.CurrentMap = []float64{1} },
		func(g *GridSpec) { g.CurrentMap = negMap(g.Nx * g.Ny) },
	}
	for i, mut := range muts {
		g := baseSpec()
		mut(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func negMap(n int) []float64 {
	m := make([]float64, n)
	m[n/2] = -1
	return m
}

func TestSolveRequiresPads(t *testing.T) {
	if _, err := Solve(baseSpec(), nil, SolveOptions{}); err == nil {
		t.Error("padless grid accepted")
	}
	if _, err := Solve(baseSpec(), []Pad{{I: 99, J: 0}}, SolveOptions{}); err == nil {
		t.Error("out-of-range pad accepted")
	}
}

// With the whole left edge held at Vdd and uniform draw, the continuum
// solution is V(x) = Vdd − J0·Rsx·(W·x − x²/2); the maximum drop is
// J0·Rsx·W²/2 at the far edge. The production solver and the SOR oracle
// must both reproduce it.
func TestSolveMatches1DAnalytic(t *testing.T) {
	g := baseSpec()
	g.Nx, g.Ny = 51, 11
	solvers := map[string]func() (*Solution, error){
		"default": func() (*Solution, error) { return Solve(g, leftEdgePads(g), SolveOptions{}) },
		"sor":     func() (*Solution, error) { return SolveSOR(g, leftEdgePads(g), 1e-9) },
	}
	for name, solve := range solvers {
		sol, err := solve()
		if err != nil {
			t.Fatal(err)
		}
		analytic := g.CurrentDensity * g.RsX * g.Width * g.Width / 2
		got := sol.MaxDrop()
		if rel := math.Abs(got-analytic) / analytic; rel > 0.05 {
			t.Errorf("%s: MaxDrop = %v, analytic %v (rel err %.3f)", name, got, analytic, rel)
		}
		// Mid-plane profile must match the parabola pointwise.
		for i := 0; i < g.Nx; i += 10 {
			x := float64(i) * g.Dx()
			want := g.Vdd - g.CurrentDensity*g.RsX*(g.Width*x-x*x/2)
			if diff := math.Abs(sol.At(i, g.Ny/2) - want); diff > 0.05*analytic+1e-12 {
				t.Errorf("%s: V(%d) = %v, want %v", name, i, sol.At(i, g.Ny/2), want)
			}
		}
	}
}

// The production solver (MGCG on this odd grid) and the independent SOR
// oracle must land on the same voltages.
func TestCGAndSORAgree(t *testing.T) {
	g := baseSpec()
	pads := []Pad{{I: 0, J: 0}, {I: 20, J: 7}, {I: 3, J: 20}}
	cg, err := Solve(g, pads, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sor, err := SolveSOR(g, pads, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	for k := range cg.V {
		if d := math.Abs(cg.V[k] - sor.V[k]); d > 1e-5*g.Vdd {
			t.Fatalf("node %d: CG %v vs SOR %v", k, cg.V[k], sor.V[k])
		}
	}
}

func TestSolutionQueries(t *testing.T) {
	g := baseSpec()
	sol, err := Solve(g, []Pad{{I: 0, J: 0}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.At(0, 0) != g.Vdd {
		t.Errorf("pad voltage = %v", sol.At(0, 0))
	}
	i, j := sol.WorstNode()
	// Single pad at a corner: the worst node is the opposite corner.
	if i != g.Nx-1 || j != g.Ny-1 {
		t.Errorf("worst node = (%d,%d), want opposite corner", i, j)
	}
	if sol.MaxDrop() <= 0 || sol.AvgDrop() <= 0 || sol.AvgDrop() > sol.MaxDrop() {
		t.Errorf("drops inconsistent: max %v avg %v", sol.MaxDrop(), sol.AvgDrop())
	}
	if sol.Residual > 1e-6 {
		t.Errorf("residual %v too large", sol.Residual)
	}
}

func TestSymmetricPadsGiveSymmetricSolution(t *testing.T) {
	g := baseSpec()
	pads := []Pad{{I: 0, J: 10}, {I: 20, J: 10}}
	sol, err := Solve(g, pads, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			mirror := sol.At(g.Nx-1-i, j)
			if d := math.Abs(sol.At(i, j) - mirror); d > 1e-6 {
				t.Fatalf("asymmetry at (%d,%d): %v", i, j, d)
			}
		}
	}
}

func TestMorePadsNeverHurt(t *testing.T) {
	g := baseSpec()
	few := []Pad{{I: 0, J: 0}, {I: 20, J: 20}}
	more := append(append([]Pad{}, few...), Pad{I: 20, J: 0}, Pad{I: 0, J: 20}, Pad{I: 10, J: 0})
	a, err := Solve(g, few, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(g, more, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if b.MaxDrop() > a.MaxDrop()+1e-12 {
		t.Errorf("more pads worsened drop: %v -> %v", a.MaxDrop(), b.MaxDrop())
	}
}

func TestSpreadPadsBeatClusteredPads(t *testing.T) {
	g := baseSpec()
	clustered := []Pad{{I: 0, J: 0}, {I: 1, J: 0}, {I: 2, J: 0}, {I: 3, J: 0}}
	spread := []Pad{{I: 0, J: 0}, {I: 20, J: 0}, {I: 0, J: 20}, {I: 20, J: 20}}
	c, err := Solve(g, clustered, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Solve(g, spread, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxDrop() >= c.MaxDrop() {
		t.Errorf("spread pads (%v) not better than clustered (%v)", s.MaxDrop(), c.MaxDrop())
	}
}

func TestAllPadsMeansNoDrop(t *testing.T) {
	g := baseSpec()
	g.Nx, g.Ny = 5, 5
	var pads []Pad
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			pads = append(pads, Pad{I: i, J: j})
		}
	}
	sol, err := Solve(g, pads, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MaxDrop() != 0 {
		t.Errorf("MaxDrop = %v with every node a pad", sol.MaxDrop())
	}
}

func TestCurrentMapHotspotAttractsWorstNode(t *testing.T) {
	g := baseSpec()
	cm := make([]float64, g.Nx*g.Ny)
	for k := range cm {
		cm[k] = 0.2
	}
	// Hot spot near (15,15).
	for j := 13; j <= 17; j++ {
		for i := 13; i <= 17; i++ {
			cm[j*g.Nx+i] = 8
		}
	}
	g.CurrentMap = cm
	// Pads on all four corners: without the hot spot the worst node
	// would be the grid center.
	pads := []Pad{{0, 0}, {20, 0}, {0, 20}, {20, 20}}
	sol, err := Solve(g, pads, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i, j := sol.WorstNode()
	if math.Hypot(float64(i-15), float64(j-15)) > 4 {
		t.Errorf("worst node (%d,%d) not near hot spot (15,15)", i, j)
	}
}

func TestZeroCurrentMeansNoDrop(t *testing.T) {
	g := baseSpec()
	g.CurrentDensity = 0
	sol, err := Solve(g, []Pad{{I: 0, J: 0}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MaxDrop() > 1e-12 {
		t.Errorf("MaxDrop = %v with zero draw", sol.MaxDrop())
	}
}

func TestKCLHolds(t *testing.T) {
	// The residual reported by the solver is the max KCL violation; it
	// must be tiny relative to a node's sink current.
	g := baseSpec()
	sol, err := Solve(g, []Pad{{I: 5, J: 5}, {I: 15, J: 15}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink := g.CurrentDensity * g.Dx() * g.Dy()
	if sol.Residual > 1e-6*sink*float64(g.Nx*g.Ny) {
		t.Errorf("KCL residual %v too large (sink %v)", sol.Residual, sink)
	}
}
