package power

import (
	"fmt"
	"math"
)

// SolveSOR is the test-only cross-check oracle: lexicographic successive
// over-relaxation (ω = 1.8) on the full node grid. It shares nothing with the
// production solver beyond the model — no elimination, no preconditioner,
// a different stopping rule — so agreement between the two is evidence, not
// tautology. It stops when the max KCL violation is at most tol times the
// grid's total sink current (checked every 8 sweeps), or after 200·(Nx+Ny)
// sweeps. Exported for the external power_test package.
func SolveSOR(g GridSpec, pads []Pad, tol float64) (*Solution, error) {
	const omega = 1.8
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(pads) == 0 {
		return nil, fmt.Errorf("power: no pads: grid has no supply")
	}
	isPad := make([]bool, g.Nx*g.Ny)
	for _, p := range pads {
		if p.I < 0 || p.I >= g.Nx || p.J < 0 || p.J >= g.Ny {
			return nil, fmt.Errorf("power: pad (%d,%d) outside %dx%d grid", p.I, p.J, g.Nx, g.Ny)
		}
		isPad[p.J*g.Nx+p.I] = true
	}
	gx, gy := conductances(g)
	sink := sinksInto(nil, g)
	v := make([]float64, g.Nx*g.Ny)
	var scale float64
	for k := range v {
		v[k] = g.Vdd
		scale += math.Abs(sink[k])
	}
	if scale == 0 {
		scale = 1
	}
	limit := tol * scale
	maxSweeps := 200 * (g.Nx + g.Ny)
	sweeps := 0
	for sweeps < maxSweeps {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				k := j*g.Nx + i
				if isPad[k] {
					continue
				}
				var sumG, sumGV float64
				if i > 0 {
					sumG += gx
					sumGV += gx * v[k-1]
				}
				if i < g.Nx-1 {
					sumG += gx
					sumGV += gx * v[k+1]
				}
				if j > 0 {
					sumG += gy
					sumGV += gy * v[k-g.Nx]
				}
				if j < g.Ny-1 {
					sumG += gy
					sumGV += gy * v[k+g.Nx]
				}
				next := (sumGV - sink[k]) / sumG
				v[k] += omega * (next - v[k])
			}
		}
		sweeps++
		if sweeps%8 == 0 && residualNorm(g, isPad, sink, v) <= limit {
			break
		}
	}
	res := residualNorm(g, isPad, sink, v)
	sol := &Solution{Spec: g, V: v, Iterations: sweeps, Residual: res, Converged: res <= limit}
	if !sol.Converged {
		sol.Stopped = "max iterations"
	}
	return sol, nil
}
