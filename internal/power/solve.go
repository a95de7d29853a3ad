package power

import (
	"context"
	"fmt"
	"math"
	"sync"
)

// workspace holds one solve's scratch: the pad mask, the sink currents, the
// pad-eliminated system, the CG vectors and the multigrid level stack. A
// solve borrows one from wsPool and rebuilds every field it reads, so any
// earlier solve — of any shape — leaves no trace in the next one, and a warm
// solve allocates only its Solution and V.
type workspace struct {
	nx, ny int
	gx, gy float64

	isPad    []bool
	sink     []float64
	idx      []int     // node → unknown index, -1 at pads
	unknowns []int     // unknown → node
	diag, b  []float64 // the eliminated operator's diagonal and right-hand side

	x, r, z, p, ap []float64 // CG vectors over the unknowns

	// levels is the multigrid stack, finest first; empty when the grid
	// cannot coarsen and CG falls back to the Jacobi preconditioner. seed
	// is buildHierarchy's per-level spring scratch.
	levels []*mgLevel
	seed   []float64
}

var wsPool = sync.Pool{New: func() any { return new(workspace) }}

// resize returns s with length n, reusing its backing array when it is large
// enough. The contents are stale; callers overwrite or clear them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// solve validates the inputs and runs the solver: MGCG when the grid
// coarsens, Jacobi CG when it cannot.
func (ws *workspace) solve(ctx context.Context, g GridSpec, pads []Pad, opt SolveOptions) (*Solution, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if len(pads) == 0 {
		return nil, fmt.Errorf("power: no pads: grid has no supply")
	}
	ws.isPad = resize(ws.isPad, g.Nx*g.Ny)
	clear(ws.isPad)
	for _, p := range pads {
		if p.I < 0 || p.I >= g.Nx || p.J < 0 || p.J >= g.Ny {
			return nil, fmt.Errorf("power: pad (%d,%d) outside %dx%d grid", p.I, p.J, g.Nx, g.Ny)
		}
		ws.isPad[p.J*g.Nx+p.I] = true
	}
	opt = opt.withDefaults(g)
	if !(opt.Tol >= 0) || opt.MaxIter < 1 {
		return nil, fmt.Errorf("power: invalid solve options (tol %g, maxIter %d)", opt.Tol, opt.MaxIter)
	}
	ws.eliminate(g)
	method := "cg"
	if ws.buildHierarchy(g) {
		method = "mgcg"
	}
	sol := ws.cg(ctx, g, opt)
	recordSolve(opt.Recorder, g, len(pads), sol, method)
	return sol, nil
}

// eliminate sets up the Dirichlet-eliminated SPD system: the sink currents,
// the unknown numbering, and the operator's diagonal and right-hand side
// (-sink plus the Vdd terms of pad links).
func (ws *workspace) eliminate(g GridSpec) {
	n := g.Nx * g.Ny
	ws.nx, ws.ny = g.Nx, g.Ny
	ws.gx, ws.gy = conductances(g)
	ws.sink = sinksInto(ws.sink, g)
	ws.idx = resize(ws.idx, n)
	ws.unknowns = resize(ws.unknowns, n)[:0]
	for k := 0; k < n; k++ {
		if ws.isPad[k] {
			ws.idx[k] = -1
			continue
		}
		ws.idx[k] = len(ws.unknowns)
		ws.unknowns = append(ws.unknowns, k)
	}
	m := len(ws.unknowns)
	ws.diag = resize(ws.diag, m)
	ws.b = resize(ws.b, m)
	gx, gy, isPad, sink, diag, b := ws.gx, ws.gy, ws.isPad, ws.sink, ws.diag, ws.b
	for u, k := range ws.unknowns {
		i, j := k%g.Nx, k/g.Nx
		var sumG, bu float64
		if i > 0 {
			sumG += gx
			if isPad[k-1] {
				bu += gx * g.Vdd
			}
		}
		if i < g.Nx-1 {
			sumG += gx
			if isPad[k+1] {
				bu += gx * g.Vdd
			}
		}
		if j > 0 {
			sumG += gy
			if isPad[k-g.Nx] {
				bu += gy * g.Vdd
			}
		}
		if j < g.Ny-1 {
			sumG += gy
			if isPad[k+g.Nx] {
				bu += gy * g.Vdd
			}
		}
		diag[u] = sumG
		b[u] = bu - sink[k]
	}
}

// cg runs preconditioned conjugate gradients on the eliminated system from a
// flat Vdd start until ‖r‖₂ ≤ Tol·‖b‖₂. The preconditioner is one V-cycle
// when the level stack is built, else the Jacobi diagonal.
func (ws *workspace) cg(ctx context.Context, g GridSpec, opt SolveOptions) *Solution {
	m := len(ws.unknowns)
	v := make([]float64, g.Nx*g.Ny)
	if m == 0 {
		for k := range v {
			v[k] = g.Vdd
		}
		return &Solution{Spec: g, V: v, Iterations: 0, Converged: true}
	}
	ws.x, ws.r, ws.z = resize(ws.x, m), resize(ws.r, m), resize(ws.z, m)
	ws.p, ws.ap = resize(ws.p, m), resize(ws.ap, m)
	x, r, z, p, ap, b := ws.x, ws.r, ws.z, ws.p, ws.ap, ws.b

	for u := range x { // start from Vdd everywhere
		x[u] = g.Vdd
	}
	ws.mul(x, ap)
	var bnorm float64
	for u := range r {
		r[u] = b[u] - ap[u]
		bnorm += b[u] * b[u]
	}
	bnorm = math.Sqrt(bnorm)
	if bnorm == 0 {
		bnorm = 1
	}
	ws.precondition(r, z)
	copy(p, z)
	rz := dot(r, z)

	var it int
	converged := false
	stopped := "max iterations"
	for it = 0; it < opt.MaxIter; it++ {
		if math.Sqrt(dot(r, r)) <= opt.Tol*bnorm {
			converged = true
			break
		}
		if err := iterCheck(ctx); err != nil {
			stopped = err.Error()
			break
		}
		ws.mul(p, ap)
		alpha := rz / dot(p, ap)
		for u := range x {
			x[u] += alpha * p[u]
			r[u] -= alpha * ap[u]
		}
		ws.precondition(r, z)
		rzNext := dot(r, z)
		beta := rzNext / rz
		rz = rzNext
		for u := range p {
			p[u] = z[u] + beta*p[u]
		}
	}
	if !converged {
		// MaxIter may have landed exactly on a converged iterate.
		converged = math.Sqrt(dot(r, r)) <= opt.Tol*bnorm
	}
	for k, i := range ws.idx {
		if i < 0 {
			v[k] = g.Vdd
		} else {
			v[k] = x[i]
		}
	}
	sol := &Solution{Spec: g, V: v, Iterations: it, Residual: residualNorm(g, ws.isPad, ws.sink, v), Converged: converged}
	if !converged {
		sol.Stopped = stopped
	}
	return sol
}

// mul computes y = A·x for the eliminated Laplacian.
func (ws *workspace) mul(x, y []float64) {
	nx, ny, gx, gy := ws.nx, ws.ny, ws.gx, ws.gy
	idx, diag := ws.idx, ws.diag
	for u, k := range ws.unknowns {
		i, j := k%nx, k/nx
		acc := diag[u] * x[u]
		if i > 0 && idx[k-1] >= 0 {
			acc -= gx * x[idx[k-1]]
		}
		if i < nx-1 && idx[k+1] >= 0 {
			acc -= gx * x[idx[k+1]]
		}
		if j > 0 && idx[k-nx] >= 0 {
			acc -= gy * x[idx[k-nx]]
		}
		if j < ny-1 && idx[k+nx] >= 0 {
			acc -= gy * x[idx[k+nx]]
		}
		y[u] = acc
	}
}

// precondition computes z ≈ A⁻¹r: one V-cycle from a zero correction when
// the level stack is built — a symmetric positive operator (see
// multigrid.go), so CG's theory holds — else the Jacobi diagonal.
func (ws *workspace) precondition(r, z []float64) {
	if len(ws.levels) == 0 {
		diag := ws.diag
		for u := range z {
			z[u] = r[u] / diag[u]
		}
		return
	}
	rhs, v := ws.levels[0].rhs, ws.levels[0].v
	clear(rhs)
	clear(v)
	for u, k := range ws.unknowns {
		rhs[k] = r[u]
	}
	vcycle(ws.levels, 0)
	for u, k := range ws.unknowns {
		z[u] = v[k]
	}
}
