package power_test

import (
	"fmt"
	"math"
	"testing"

	"copack/internal/assign"
	"copack/internal/core"
	"copack/internal/exp"
	"copack/internal/gen"
	"copack/internal/power"
)

// The production solver against the independent SOR oracle on the grids
// the system actually solves: every Table 1 circuit (seed 1, DFA order,
// ψ = 1 and 4) on DefaultChipGrid (49×49) and exp.Table3Grid (41×41). The
// oracle runs at tol 1e-12, far below the production 1e-9, so the largest
// node difference bounds the production solver's own error. MGCG must also
// converge in a handful of iterations — a grid that silently falls back to
// Jacobi CG takes well over a hundred.
func TestSolverAgreesWithSOROracle(t *testing.T) {
	grids := map[string]func(*core.Problem) power.GridSpec{
		"default": power.DefaultChipGrid,
		"table3":  exp.Table3Grid,
	}
	for _, tc := range gen.Table1() {
		for _, psi := range []int{1, 4} {
			p := gen.MustBuild(tc, gen.Options{Seed: 1, Tiers: psi})
			a, err := assign.DFA(p, assign.DFAOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for name, grid := range grids {
				g := grid(p)
				what := fmt.Sprintf("%s ψ=%d %s %dx%d", tc.Name, psi, name, g.Nx, g.Ny)
				pads := power.PadsForAssignment(p, a, g)
				sol, err := power.Solve(g, pads, power.SolveOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if !sol.Converged || sol.Iterations > 12 {
					t.Errorf("%s: converged %v after %d iterations, want convergence in <= 12", what, sol.Converged, sol.Iterations)
				}
				oracle, err := power.SolveSOR(g, pads, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				if !oracle.Converged {
					t.Fatalf("%s: SOR oracle did not converge (residual %g after %d sweeps)", what, oracle.Residual, oracle.Iterations)
				}
				worst := 0.0
				for k := range sol.V {
					worst = math.Max(worst, math.Abs(sol.V[k]-oracle.V[k]))
				}
				if worst > 1e-8 {
					t.Errorf("%s: max |ΔV| = %.3g V against the oracle, want <= 1e-8", what, worst)
				}
				t.Logf("%s: %d iterations, max |ΔV| %.2g V (oracle %d sweeps)", what, sol.Iterations, worst, oracle.Iterations)
			}
		}
	}
}
