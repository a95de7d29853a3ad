// Package power implements the compact IR-drop model the paper adopts from
// Shakeri–Meindl (reference [17]): the core power distribution grid is a
// uniform resistive mesh drawing a uniform current density J0, fed with Vdd
// at the power pad locations on the die boundary. Equation (1) of the paper
// is the finite-difference form of this model; Solve computes the resulting
// node voltages with multigrid-preconditioned conjugate gradients, and the
// Proxy* functions provide the fast pad-gap estimate the finger/pad
// exchange uses inside simulated annealing (a full solve per move would
// dominate the runtime, which is exactly why the paper introduces the
// Δx/Δy shortcut).
package power

import (
	"context"
	"fmt"
	"math"

	"copack/internal/faultinject"
	"copack/internal/obs"
)

// GridSpec describes the discretized core power grid.
type GridSpec struct {
	// Nx, Ny are the node counts in x and y (at least 2 each).
	Nx, Ny int
	// Width, Height are the die core dimensions in µm.
	Width, Height float64
	// RsX, RsY are the effective sheet resistances of the power grid in
	// the x and y directions, in Ω/sq.
	RsX, RsY float64
	// Vdd is the supply voltage at the pads, in volts.
	Vdd float64
	// CurrentDensity is the uniform current draw J0 in A/µm².
	CurrentDensity float64
	// CurrentMap, when non-nil, scales the current density per node
	// (row-major, length Nx·Ny): node (i,j) draws
	// CurrentDensity·CurrentMap[j*Nx+i]·Δx·Δy. The paper's model assumes
	// a uniform map; hot-spot maps let the Fig 6 experiment model a chip
	// whose power draw is not uniform. Only the solver reads the map: the
	// exchange ranks pad moves with the uniform ring-gap proxy
	// (ProxyCost), so a hot-spot map changes the reported IR drops, not
	// which pad order the exchange picks.
	CurrentMap []float64
}

// Validate checks the spec: every dimension finite and positive, and the
// quantities the solver derives from them — the branch conductances and the
// per-node sink currents — finite too, so no NaN or Inf can reach an
// iteration.
func (g GridSpec) Validate() error {
	switch {
	case g.Nx < 2 || g.Ny < 2:
		return fmt.Errorf("power: grid %dx%d too small", g.Nx, g.Ny)
	case !finitePositive(g.Width) || !finitePositive(g.Height):
		return fmt.Errorf("power: die size %gx%g must be finite and positive", g.Width, g.Height)
	case !finitePositive(g.RsX) || !finitePositive(g.RsY):
		return fmt.Errorf("power: sheet resistance %g/%g must be finite and positive", g.RsX, g.RsY)
	case !finitePositive(g.Vdd):
		return fmt.Errorf("power: Vdd %g must be finite and positive", g.Vdd)
	case !(g.CurrentDensity >= 0) || math.IsInf(g.CurrentDensity, 1):
		return fmt.Errorf("power: current density %g must be finite and non-negative", g.CurrentDensity)
	case g.CurrentMap != nil && len(g.CurrentMap) != g.Nx*g.Ny:
		return fmt.Errorf("power: current map has %d entries, grid has %d nodes", len(g.CurrentMap), g.Nx*g.Ny)
	}
	if gx, gy := conductances(g); !finitePositive(gx) || !finitePositive(gy) {
		return fmt.Errorf("power: derived conductances %g/%g must be finite and positive", gx, gy)
	}
	base := sinkBase(g)
	if math.IsNaN(base) || math.IsInf(base, 0) {
		return fmt.Errorf("power: derived sink current %g is not finite", base)
	}
	for k, c := range g.CurrentMap {
		if !(c >= 0) || math.IsInf(c, 1) {
			return fmt.Errorf("power: current map entry %d is %g", k, c)
		}
		if s := base * c; math.IsInf(s, 0) {
			return fmt.Errorf("power: derived sink current at node %d is %g", k, s)
		}
	}
	return nil
}

func finitePositive(x float64) bool { return x > 0 && !math.IsInf(x, 1) }

// Dx returns the node spacing in x.
func (g GridSpec) Dx() float64 { return g.Width / float64(g.Nx-1) }

// Dy returns the node spacing in y.
func (g GridSpec) Dy() float64 { return g.Height / float64(g.Ny-1) }

// Pad is a Dirichlet (Vdd) node of the grid.
type Pad struct {
	I, J int
}

// SolveOptions tunes the solver. The zero value is the production solver:
// conjugate gradients preconditioned with one multigrid V-cycle per
// iteration (MGCG, see multigrid.go) on grids that coarsen, and Jacobi CG on
// grids that cannot (an even side, or fewer than 5 nodes a side).
type SolveOptions struct {
	// tol is the relative residual target ‖r‖₂ ≤ tol·‖b‖₂ on the
	// pad-eliminated system (default 1e-9).
	tol float64
	// maxIter bounds the CG iteration count (default 20·(Nx+Ny)); under
	// MGCG each iteration is one V-cycle. Programs run the defaults; the
	// tests set both to pin starvation and convergence.
	maxIter int
	// Workers is ignored: every solve runs in sequence on the caller's
	// goroutine.
	//
	// Deprecated: nothing reads Workers; leave it unset.
	Workers int
	// Recorder receives solver telemetry after the solve finishes: the
	// method that ran (method/mgcg or the method/cg fallback), iteration
	// count, final residual, convergence and the grid/pad sizes. Nil
	// disables recording; recording never changes the solve. Callers
	// namespace per solve stage with obs.WithPrefix (gauges are
	// last-write-wins).
	Recorder obs.Recorder
}

func (o SolveOptions) withDefaults(g GridSpec) SolveOptions {
	if o.tol == 0 {
		o.tol = 1e-9
	}
	if o.maxIter == 0 {
		o.maxIter = 20 * (g.Nx + g.Ny)
	}
	return o
}

// Solution holds the solved node voltages.
type Solution struct {
	Spec       GridSpec
	V          []float64 // row-major: V[j*Nx+i]
	Iterations int
	Residual   float64
	// Converged reports that the iteration met its tolerance. When false
	// — the solver ran out of iterations (starvation) or was cancelled — V
	// is the current iterate and Residual quantifies how far it is from a
	// solution; callers must treat the voltages as an estimate, not a
	// sign-off answer.
	Converged bool
	// Stopped is the reason a non-converged solve ended early ("max
	// iterations", the context error, …); empty when Converged.
	Stopped string
}

// At returns the voltage of node (i, j).
func (s *Solution) At(i, j int) float64 { return s.V[j*s.Spec.Nx+i] }

// MaxDrop returns Vdd minus the lowest node voltage — the paper's
// "maximum value of IR-drop".
func (s *Solution) MaxDrop() float64 {
	min := math.Inf(1)
	for _, v := range s.V {
		if v < min {
			min = v
		}
	}
	return s.Spec.Vdd - min
}

// AvgDrop returns the average IR-drop over all nodes.
func (s *Solution) AvgDrop() float64 {
	var sum float64
	for _, v := range s.V {
		sum += s.Spec.Vdd - v
	}
	return sum / float64(len(s.V))
}

// WorstNode returns the coordinates of the lowest-voltage node.
func (s *Solution) WorstNode() (i, j int) {
	min, at := math.Inf(1), 0
	for k, v := range s.V {
		if v < min {
			min, at = v, k
		}
	}
	return at % s.Spec.Nx, at / s.Spec.Nx
}

// Solve computes the grid voltages for the given pad set. At least one pad
// is required (otherwise the system is singular: every node only sinks
// current). Duplicate pads are allowed and collapse to one Dirichlet node.
func Solve(g GridSpec, pads []Pad, opt SolveOptions) (*Solution, error) {
	return SolveContext(context.Background(), g, pads, opt)
}

// SolveContext is Solve with cancellation: the iteration polls ctx and on
// cancellation returns the current iterate (Converged=false, Stopped set,
// Residual computed) instead of an error, so a deadline still yields a
// best-effort voltage map. Real input errors are still errors.
//
// The solve runs out of a pooled workspace (see solve.go): a warm
// solve allocates only its Solution and V, which the caller owns.
func SolveContext(ctx context.Context, g GridSpec, pads []Pad, opt SolveOptions) (*Solution, error) {
	ws := wsPool.Get().(*workspace)
	defer wsPool.Put(ws)
	return ws.solve(ctx, g, pads, opt)
}

// recordSolve emits one solve's telemetry. It runs strictly after the
// numeric work, so recording can never change the solution. method is the
// path that ran: "mgcg", or "cg" when the grid could not coarsen.
func recordSolve(r obs.Recorder, g GridSpec, pads int, sol *Solution, method string) {
	rec := obs.OrNop(r)
	if _, nop := rec.(obs.NopRecorder); nop {
		return
	}
	rec.Add("method/"+method, 1)
	rec.Add("solves", 1)
	rec.Add("iterations", int64(sol.Iterations))
	rec.Set("residual", sol.Residual)
	rec.Set("max_drop", sol.MaxDrop())
	if sol.Converged {
		rec.Set("converged", 1)
	} else {
		rec.Set("converged", 0)
	}
	rec.Set("nodes", float64(g.Nx*g.Ny))
	rec.Set("pads", float64(pads))
}

// iterCheck polls the fault-injection site and the context once per solver
// iteration; a non-nil result is the reason to stop iterating.
func iterCheck(ctx context.Context) error {
	if err := faultinject.Fire(faultinject.PowerIteration); err != nil {
		return err
	}
	return ctx.Err()
}

// conductances returns the branch conductances gx (between x-neighbors) and
// gy from Eq (1)'s finite differences.
func conductances(g GridSpec) (gx, gy float64) {
	dx, dy := g.Dx(), g.Dy()
	gx = dy / (g.RsX * dx)
	gy = dx / (g.RsY * dy)
	return
}

// sinkBase is the sink current of a node at map weight 1: J0·Δx·Δy.
func sinkBase(g GridSpec) float64 { return g.CurrentDensity * g.Dx() * g.Dy() }

// sinksInto fills dst (resized to Nx·Ny) with the per-node sink currents.
func sinksInto(dst []float64, g GridSpec) []float64 {
	base := sinkBase(g)
	dst = resize(dst, g.Nx*g.Ny)
	for k := range dst {
		dst[k] = base
		if g.CurrentMap != nil {
			dst[k] *= g.CurrentMap[k]
		}
	}
	return dst
}

// residualNorm returns the max KCL violation over non-pad nodes.
func residualNorm(g GridSpec, isPad []bool, sink, v []float64) float64 {
	gx, gy := conductances(g)
	worst := 0.0
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
			r := sumGV - sumG*v[k] - sink[k]
			if a := math.Abs(r); a > worst {
				worst = a
			}
		}
	}
	return worst
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
