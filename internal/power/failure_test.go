package power

import (
	"math"
	"testing"
)

// Failure injection: starved solvers must degrade gracefully — return a
// solution with an honest (large) residual, never hang, never produce NaN.
func TestStarvedSolversReportResidual(t *testing.T) {
	odd := baseSpec() // 21×21: MGCG
	even := baseSpec()
	even.Nx, even.Ny = 20, 20 // Jacobi CG fallback
	pads := []Pad{{I: 0, J: 0}}
	for name, g := range map[string]GridSpec{"mgcg": odd, "cg": even} {
		sol, err := Solve(g, pads, SolveOptions{maxIter: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full, err := Solve(g, pads, SolveOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Residual <= full.Residual {
			t.Errorf("%s: starved residual %v not above converged %v", name, sol.Residual, full.Residual)
		}
		for k, v := range sol.V {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("%s: node %d is %v", name, k, v)
			}
		}
	}
}

func TestBadSolveOptionsRejected(t *testing.T) {
	g := baseSpec()
	pads := []Pad{{I: 0, J: 0}}
	bad := []SolveOptions{
		{tol: -1},
		{tol: math.NaN()},
		{maxIter: -5},
	}
	for i, opt := range bad {
		if _, err := Solve(g, pads, opt); err == nil {
			t.Errorf("options %d accepted: %+v", i, opt)
		}
	}
}

// An all-pad grid (every node Dirichlet) is a degenerate but legal input,
// on the fallback (3×3) and the multigrid (5×5) shape alike.
func TestDegenerateAllPadCG(t *testing.T) {
	for _, n := range []int{3, 5} {
		g := baseSpec()
		g.Nx, g.Ny = n, n
		var pads []Pad
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				pads = append(pads, Pad{I: i, J: j})
			}
		}
		sol, err := Solve(g, pads, SolveOptions{})
		if err != nil {
			t.Fatalf("%dx%d: %v", n, n, err)
		}
		if sol.MaxDrop() != 0 || !sol.Converged {
			t.Errorf("%dx%d: drop %v (converged %v) on all-pad grid", n, n, sol.MaxDrop(), sol.Converged)
		}
	}
}

// Extreme aspect-ratio grids (1-node-wide strips are disallowed; 2-wide
// must work) exercise the neighbor bookkeeping.
func TestExtremeAspectRatio(t *testing.T) {
	g := baseSpec()
	g.Nx, g.Ny = 2, 41
	g.Width, g.Height = 2, 200
	sol, err := Solve(g, []Pad{{I: 0, J: 0}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.MaxDrop() <= 0 {
		t.Error("no drop on a strip grid")
	}
	i, j := sol.WorstNode()
	if j != g.Ny-1 {
		t.Errorf("worst node (%d,%d), want far end of the strip", i, j)
	}
}

// Huge current with tiny conductance must still converge (ill-conditioned
// but SPD).
func TestIllConditionedStillConverges(t *testing.T) {
	g := baseSpec()
	g.RsX, g.RsY = 50, 0.001
	sol, err := Solve(g, []Pad{{I: 10, J: 10}}, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sink := g.CurrentDensity * g.Dx() * g.Dy()
	if sol.Residual > 1e-5*sink*float64(g.Nx*g.Ny) {
		t.Errorf("residual %v too large for anisotropic grid", sol.Residual)
	}
}
