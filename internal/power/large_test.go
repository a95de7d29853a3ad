package power

import (
	"context"
	"testing"
)

// bigSpec is a large even grid, exercising the Jacobi CG fallback.
func bigSpec() GridSpec {
	return GridSpec{
		Nx: 70, Ny: 70, // 4900 nodes
		Width: 100, Height: 100,
		RsX: 0.05, RsY: 0.05,
		Vdd:            1.0,
		CurrentDensity: 1e-5,
	}
}

func ringPads(g GridSpec) []Pad {
	var pads []Pad
	step := 7
	for i := 0; i < g.Nx; i += step {
		pads = append(pads, Pad{I: i, J: 0}, Pad{I: i, J: g.Ny - 1})
	}
	for j := 0; j < g.Ny; j += step {
		pads = append(pads, Pad{I: 0, J: j}, Pad{I: g.Nx - 1, J: j})
	}
	return pads
}

// largeShapes are large grids on both solver paths: bigSpec's even 70×70
// takes the Jacobi CG fallback, mgSpec's odd 65×65 runs MGCG.
func largeShapes() map[string]GridSpec {
	return map[string]GridSpec{"cg": bigSpec(), "mgcg": mgSpec()}
}

// Physics sanity on the large grids: pads pinned at Vdd, every other node
// strictly below it (the grid only sinks current).
func TestLargeGridPhysics(t *testing.T) {
	for m, g := range largeShapes() {
		pads := ringPads(g)
		sol, err := Solve(g, pads, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sol.Converged {
			t.Fatalf("%s: did not converge (residual %g after %d iterations)", m, sol.Residual, sol.Iterations)
		}
		isPad := make(map[Pad]bool, len(pads))
		for _, p := range pads {
			isPad[p] = true
		}
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				v := sol.At(i, j)
				if isPad[Pad{I: i, J: j}] {
					if v != g.Vdd {
						t.Fatalf("%s: pad (%d,%d) at %v, want Vdd", m, i, j, v)
					}
					continue
				}
				if v >= g.Vdd || v <= 0 {
					t.Fatalf("%s: node (%d,%d) voltage %v outside (0, Vdd)", m, i, j, v)
				}
			}
		}
	}
}

// Cancellation on the large grids follows the Partial contract: current
// iterate back, Converged=false, Stopped set, no error.
func TestLargeGridCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for m, g := range largeShapes() {
		sol, err := SolveContext(ctx, g, ringPads(g), SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Converged {
			t.Errorf("%s: cancelled solve claims convergence", m)
		}
		if sol.Stopped == "" {
			t.Errorf("%s: cancelled solve has empty Stopped", m)
		}
		if sol.Iterations != 0 {
			t.Errorf("%s: cancelled-before-start solve ran %d iterations", m, sol.Iterations)
		}
		if len(sol.V) != g.Nx*g.Ny {
			t.Errorf("%s: no iterate returned", m)
		}
	}
}
