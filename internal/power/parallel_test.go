package power

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// bigSpec is an even grid above parallelNodeThreshold, exercising the
// parallel Jacobi CG fallback.
func bigSpec() GridSpec {
	return GridSpec{
		Nx: 70, Ny: 70, // 4900 nodes >= 4096
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

// largeShapes are grids above parallelNodeThreshold on both solver paths:
// bigSpec's even 70×70 takes the Jacobi CG fallback, mgSpec's odd 65×65
// runs MGCG.
func largeShapes() map[string]GridSpec {
	return map[string]GridSpec{"cg": bigSpec(), "mgcg": mgSpec()}
}

// sameForWorkers solves g at Workers 1 and at each of the other counts and
// requires bit-identical results.
func sameForWorkers(t *testing.T, what string, g GridSpec, pads []Pad, opt SolveOptions, workers ...int) *Solution {
	t.Helper()
	opt.Workers = 1
	ref, err := Solve(g, pads, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workers {
		opt.Workers = w
		sol, err := Solve(g, pads, opt)
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, fmt.Sprintf("%s, workers %d", what, w), sol, ref)
	}
	return ref
}

// The whole point of the size-gated scheme selection: a solve's voltages
// must be bit-for-bit identical for every worker count, for intermediate
// iterates (a starved MaxIter) as well as converged ones. This is the
// Jacobi CG fallback; TestMGDeterministicAcrossWorkers covers MGCG.
func TestSolveDeterministicAcrossWorkers(t *testing.T) {
	g := bigSpec()
	for _, maxIter := range []int{0, 3} {
		sameForWorkers(t, fmt.Sprintf("maxIter %d", maxIter), g, ringPads(g), SolveOptions{MaxIter: maxIter}, 2, 4, 8)
	}
}

// Physics sanity on the parallel kernels: pads pinned at Vdd, every other
// node strictly below it (the grid only sinks current).
func TestLargeGridPhysics(t *testing.T) {
	for m, g := range largeShapes() {
		pads := ringPads(g)
		sol, err := Solve(g, pads, SolveOptions{Workers: 4})
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

// Cancellation above the threshold follows the Partial contract: current
// iterate back, Converged=false, Stopped set, no error.
func TestLargeGridCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for m, g := range largeShapes() {
		sol, err := SolveContext(ctx, g, ringPads(g), SolveOptions{Workers: 4})
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

// Below the threshold the sequential kernels run for any Workers value —
// the small-grid result must not depend on Workers at all. This is the
// Jacobi CG fallback; TestMGSmallGridIgnoresWorkers covers MGCG.
func TestSmallGridIgnoresWorkers(t *testing.T) {
	g := baseSpec()
	g.Nx, g.Ny = 20, 20 // 400 nodes, far below the threshold
	sameForWorkers(t, "20x20", g, leftEdgePads(g), SolveOptions{}, 8)
}

// The chunked dot product must be bit-identical for every worker count.
func TestDotChunkedDeterministic(t *testing.T) {
	n := 3*dotChunkSize + 137
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = math.Sin(float64(i)) * 1e-3
		b[i] = math.Cos(float64(i)*0.7) * 1e3
	}
	ref := dotChunked(a, b, 1)
	for _, workers := range []int{2, 4, 16} {
		if got := dotChunked(a, b, workers); got != ref {
			t.Errorf("workers=%d: dotChunked = %v, want %v", workers, got, ref)
		}
	}
	// And it agrees with the plain dot to rounding.
	if d := math.Abs(ref - dot(a, b)); d > 1e-9*math.Abs(ref)+1e-12 {
		t.Errorf("chunked dot %v far from plain %v", ref, dot(a, b))
	}
}
