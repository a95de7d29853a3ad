package power

import (
	"context"
	"testing"

	"copack/internal/faultinject"
)

func testGrid() GridSpec {
	return GridSpec{
		Nx: 24, Ny: 24, Width: 100, Height: 100,
		RsX: 0.5, RsY: 0.5, Vdd: 1.0, CurrentDensity: 1e-5,
	}
}

// solverShapes are the two solver paths: testGrid's even 24×24 takes the
// Jacobi CG fallback, the odd 25×25 runs MGCG.
func solverShapes() map[string]GridSpec {
	odd := testGrid()
	odd.Nx, odd.Ny = 25, 25
	return map[string]GridSpec{"cg": testGrid(), "mgcg": odd}
}

func corners(g GridSpec) []Pad { return []Pad{{0, 0}, {g.Nx - 1, g.Ny - 1}} }

func TestSolveSetsConverged(t *testing.T) {
	for m, g := range solverShapes() {
		sol, err := Solve(g, corners(g), SolveOptions{})
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		if !sol.Converged {
			t.Errorf("method %v: default solve did not converge (%d iters, residual %g, stopped %q)",
				m, sol.Iterations, sol.Residual, sol.Stopped)
		}
		if sol.Stopped != "" {
			t.Errorf("method %v: converged solve has Stopped = %q", m, sol.Stopped)
		}
	}
}

func TestStarvedSolveReportsNonConvergence(t *testing.T) {
	for m, g := range solverShapes() {
		full, err := Solve(g, corners(g), SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Solve(g, corners(g), SolveOptions{maxIter: 2})
		if err != nil {
			t.Fatalf("method %v: %v", m, err)
		}
		if sol.Converged {
			t.Fatalf("method %v: 2-iteration solve claims convergence", m)
		}
		if sol.Stopped == "" {
			t.Errorf("method %v: starved solve has empty Stopped", m)
		}
		// The starved answer must be an honest estimate: residual
		// reported, voltages present, and visibly worse than the
		// converged residual.
		if sol.Residual <= full.Residual {
			t.Errorf("method %v: starved residual %g not above converged %g", m, sol.Residual, full.Residual)
		}
		if len(sol.V) != g.Nx*g.Ny {
			t.Errorf("method %v: starved solve returned %d voltages", m, len(sol.V))
		}
	}
}

func TestSolveContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for m, g := range solverShapes() {
		sol, err := SolveContext(ctx, g, corners(g), SolveOptions{})
		if err != nil {
			t.Fatalf("method %v: cancellation became an error: %v", m, err)
		}
		if sol.Converged {
			t.Errorf("method %v: cancelled solve claims convergence", m)
		}
		if sol.Stopped != context.Canceled.Error() {
			t.Errorf("method %v: Stopped = %q", m, sol.Stopped)
		}
		// The initial iterate (flat Vdd) comes back with its residual.
		if len(sol.V) != g.Nx*g.Ny || sol.Residual == 0 || sol.Iterations != 0 {
			t.Errorf("method %v: cancelled solve V=%d residual=%g iterations=%d", m, len(sol.V), sol.Residual, sol.Iterations)
		}
	}
}

func TestSolveInputErrorsStayErrors(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SolveContext(ctx, testGrid(), nil, SolveOptions{}); err == nil {
		t.Error("no-pad solve under cancelled ctx must still be an input error")
	}
}

func TestInjectedStarvationStopsSolver(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.PowerIteration, After: 3})
	sol, err := Solve(testGrid(), corners(testGrid()), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Converged {
		t.Fatal("fault-starved solve claims convergence")
	}
	if sol.Stopped != faultinject.ErrInjected.Error() {
		t.Errorf("Stopped = %q", sol.Stopped)
	}
	if sol.Iterations >= 5 {
		t.Errorf("solver kept iterating after the injected fault (%d iterations)", sol.Iterations)
	}
}
