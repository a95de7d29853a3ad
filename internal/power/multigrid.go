package power

import "slices"

// Geometric multigrid for the Eq (1) mesh. The hierarchy is vertex-centered:
// a fine grid with odd node counts (Nx, Ny ≥ 5) coarsens to ((Nx+1)/2,
// (Ny+1)/2) by keeping every other node, so coarse node (I,J) sits exactly on
// fine node (2I,2J). Because the branch conductances gx = Δy/(RsX·Δx) and
// gy = Δx/(RsY·Δy) are invariant under doubling both spacings, every level
// reuses the fine conductances verbatim — the coarse operator is the
// rediscretized five-point stencil, no Galerkin product needed.
//
// Transfer operators are the matched pair P (bilinear interpolation) and
// R = Pᵀ (full weighting with weights summing to 4: center 1, edges 1/2,
// corners 1/4). The 4× total weight is load-bearing, not a convention: the
// per-node sink current scales with the cell area Δx·Δy, so a coarse cell
// aggregates 4 fine cells' worth of right-hand side. With sum-to-1 weighting
// the coarse correction comes back 4× too small and the V-cycle degenerates
// to little better than smoothing.
//
// Determinism: every kernel below is sharded with parallelRange over
// index-disjoint outputs — red-black half-sweeps only read the opposite
// color, residual/restrict/prolong are pure gather-writes — so Workers never
// changes a single bit of the result. Below the parallel threshold each
// kernel runs inline with no closure, so a V-cycle allocates nothing.
const (
	// mgMinDim is the smallest odd dimension that still coarsens (to 3).
	mgMinDim = 5
	// mgPreSweeps / mgPostSweeps are the red-black Gauss-Seidel smoothing
	// sweeps on the way down / up. Post-smoothing reverses the color order
	// (black then red) so the whole V-cycle is a symmetric operator —
	// required for MGCG, where the preconditioner must be SPD.
	mgPreSweeps  = 2
	mgPostSweeps = 2
	// mgCoarsestSweeps is the number of symmetric sweep pairs on the
	// coarsest level, which is at most mgMinDim-ish on a side — cheap
	// enough to just hammer flat.
	mgCoarsestSweeps = 20
)

// mgLevel is one grid of the hierarchy. Level 0 is the fine problem; deeper
// levels hold the restricted residual equations.
//
// Pads coarsen in a hybrid of two representations. A pad that coincides
// with a coarse node (both coordinates even) stays an exact Dirichlet pin.
// A dropped pad (odd coordinate) instead becomes a diagonal "spring" on the
// free nodes around it: in the eliminated fine operator a node adjacent to
// a pad keeps the pad-link conductance on its diagonal without a matching
// off-diagonal — a grounding spring (the correction equation's ground is
// 0) — and those springs aggregate down the hierarchy with the Pᵀ weights.
// Neither representation suffices alone: ignoring dropped pads lets the
// coarse grid overcorrect through the missing pins and the V-iteration
// amplifies ~4× per cycle on the paper's sparse pad rings, while growing
// the Dirichlet set to cover dropped pads over-pins and roughly halves the
// per-cycle contraction. Springs only add to the diagonal, so the coarse
// operators stay SPD and the cycle remains a valid MGCG preconditioner.
type mgLevel struct {
	nx, ny int
	gx, gy float64
	isPad  []bool    // level 0: the real pads; deeper levels: surviving (coincident) pads
	spring []float64 // diagonal Dirichlet coupling; level 0: all zero (pads are pinned directly)
	v      []float64 // correction: the preconditioned z (level 0) / coarse corrections
	rhs    []float64 // the CG residual r (level 0) / restricted residuals
	res    []float64 // residual scratch
}

// canCoarsen reports whether a (nx, ny) vertex grid has a coarser level:
// both dimensions odd (so every coarse node coincides with a fine node) and
// at least mgMinDim (so the coarse grid is a real grid, not a line).
func canCoarsen(nx, ny int) bool {
	return nx >= mgMinDim && ny >= mgMinDim && nx%2 == 1 && ny%2 == 1
}

// buildHierarchy fills ws.levels with g's level stack, finest first (see the
// mgLevel comment for the hybrid pad/spring coarsening rule), reusing the
// buffers of earlier solves, and reports whether the stack has a coarse
// level. Coarsening stops when the dimensions stop being coarsenable or when
// the next level would have neither pads nor springs (such a level is
// singular — red-black sweeps on it could drift the correction by an
// arbitrary constant). On false the stack is empty and CG keeps the Jacobi
// preconditioner.
func (ws *workspace) buildHierarchy(g GridSpec) bool {
	ws.levels = ws.levels[:0]
	if !canCoarsen(g.Nx, g.Ny) {
		return false
	}
	gx, gy := ws.gx, ws.gy
	fine := ws.addLevel(g.Nx, g.Ny)
	fine.isPad = ws.isPad
	clear(fine.spring)
	// A pad survives to the coarse grid iff it coincides with a coarse
	// node (both coordinates even) — those stay exact Dirichlet pins.
	survives := func(fi, fj int) bool { return fi%2 == 0 && fj%2 == 0 }
	for {
		cur := ws.levels[len(ws.levels)-1]
		if !canCoarsen(cur.nx, cur.ny) {
			break
		}
		cnx, cny := (cur.nx+1)/2, (cur.ny+1)/2

		// seed is the per-free-node coupling the coarse grid must inherit as
		// diagonal springs: the level's own springs plus the link
		// conductances to pads that do NOT survive coarsening. Links to
		// surviving pads are excluded — they reappear as real coarse-grid
		// links to the coarse pad, and counting them twice over-stiffens
		// the boundary.
		ws.seed = resize(ws.seed, cur.nx*cur.ny)
		seed := ws.seed
		for j := 0; j < cur.ny; j++ {
			for i := 0; i < cur.nx; i++ {
				k := j*cur.nx + i
				if cur.isPad[k] {
					seed[k] = 0
					continue
				}
				s := cur.spring[k]
				if i > 0 && cur.isPad[k-1] && !survives(i-1, j) {
					s += gx
				}
				if i < cur.nx-1 && cur.isPad[k+1] && !survives(i+1, j) {
					s += gx
				}
				if j > 0 && cur.isPad[k-cur.nx] && !survives(i, j-1) {
					s += gy
				}
				if j < cur.ny-1 && cur.isPad[k+cur.nx] && !survives(i, j+1) {
					s += gy
				}
				seed[k] = s
			}
		}
		next := ws.addLevel(cnx, cny)
		next.isPad = resize(next.isPad, cnx*cny)
		anyPad := false
		var total float64
		for J := 0; J < cny; J++ {
			for I := 0; I < cnx; I++ {
				ck := J*cnx + I
				if cur.isPad[(2*J)*cur.nx+2*I] {
					next.isPad[ck], next.spring[ck] = true, 0
					anyPad = true
					continue
				}
				next.isPad[ck] = false
				next.spring[ck] = gatherFW(seed, cur.nx, cur.ny, I, J)
				total += next.spring[ck]
			}
		}
		if !anyPad && total == 0 {
			ws.levels = ws.levels[:len(ws.levels)-1]
			break
		}
	}
	if len(ws.levels) < 2 {
		ws.levels = ws.levels[:0]
		return false
	}
	return true
}

// addLevel appends an (nx, ny) level to ws.levels, reusing the buffers an
// earlier solve left at that depth. The caller sets isPad and spring; v,
// rhs and res are written before they are read.
func (ws *workspace) addLevel(nx, ny int) *mgLevel {
	l := len(ws.levels)
	ws.levels = slices.Grow(ws.levels, 1)[:l+1] // keeps the pointers past len
	lv := ws.levels[l]
	if lv == nil {
		lv = new(mgLevel)
		ws.levels[l] = lv
	}
	n := nx * ny
	lv.nx, lv.ny, lv.gx, lv.gy = nx, ny, ws.gx, ws.gy
	lv.spring = resize(lv.spring, n)
	lv.v = resize(lv.v, n)
	lv.rhs = resize(lv.rhs, n)
	lv.res = resize(lv.res, n)
	return lv
}

// gatherFW applies the Pᵀ full-weighting stencil (center 1, edges 1/2,
// corners 1/4) to src at coarse node (I, J) over a (fnx, fny) fine grid.
func gatherFW(src []float64, fnx, fny, I, J int) float64 {
	fi, fj := 2*I, 2*J
	fk := fj*fnx + fi
	s := src[fk]
	if fi > 0 {
		s += 0.5 * src[fk-1]
	}
	if fi < fnx-1 {
		s += 0.5 * src[fk+1]
	}
	if fj > 0 {
		s += 0.5 * src[fk-fnx]
		if fi > 0 {
			s += 0.25 * src[fk-fnx-1]
		}
		if fi < fnx-1 {
			s += 0.25 * src[fk-fnx+1]
		}
	}
	if fj < fny-1 {
		s += 0.5 * src[fk+fnx]
		if fi > 0 {
			s += 0.25 * src[fk+fnx-1]
		}
		if fi < fnx-1 {
			s += 0.25 * src[fk+fnx+1]
		}
	}
	return s
}

// rbSweep runs one half-sweep of plain Gauss-Seidel (ω=1 — a smoother wants
// to kill high-frequency error, over-relaxation only helps the low
// frequencies the coarse grids already handle) over the given color. A node
// of one color reads only the opposite color, so any row partition produces
// the same iterate; rows are sharded with parallelRange.
func rbSweep(lv *mgLevel, color, workers int) {
	if workers <= 1 {
		rbSweepRows(lv, color, 0, lv.ny)
		return
	}
	parallelRange(lv.ny, workers, func(lo, hi int) { rbSweepRows(lv, color, lo, hi) })
}

func rbSweepRows(lv *mgLevel, color, jlo, jhi int) {
	nx, ny, gx, gy := lv.nx, lv.ny, lv.gx, lv.gy
	v, rhs, isPad, spring := lv.v, lv.rhs, lv.isPad, lv.spring
	for j := jlo; j < jhi; j++ {
		for i := (color + j) % 2; i < nx; i += 2 {
			k := j*nx + i
			if isPad[k] {
				continue
			}
			sumG := spring[k]
			var sumGV float64
			if i > 0 {
				sumG += gx
				sumGV += gx * v[k-1]
			}
			if i < nx-1 {
				sumG += gx
				sumGV += gx * v[k+1]
			}
			if j > 0 {
				sumG += gy
				sumGV += gy * v[k-nx]
			}
			if j < ny-1 {
				sumG += gy
				sumGV += gy * v[k+nx]
			}
			v[k] = (sumGV + rhs[k]) / sumG
		}
	}
}

// computeResidual fills lv.res with rhs - A·v (zero at pads), row-sharded.
func computeResidual(lv *mgLevel, workers int) {
	if workers <= 1 {
		residualRows(lv, 0, lv.ny)
		return
	}
	parallelRange(lv.ny, workers, func(lo, hi int) { residualRows(lv, lo, hi) })
}

func residualRows(lv *mgLevel, jlo, jhi int) {
	nx, ny, gx, gy := lv.nx, lv.ny, lv.gx, lv.gy
	v, rhs, res, isPad, spring := lv.v, lv.rhs, lv.res, lv.isPad, lv.spring
	for j := jlo; j < jhi; j++ {
		for i := 0; i < nx; i++ {
			k := j*nx + i
			if isPad[k] {
				res[k] = 0
				continue
			}
			sumG := spring[k]
			var sumGV float64
			if i > 0 {
				sumG += gx
				sumGV += gx * v[k-1]
			}
			if i < nx-1 {
				sumG += gx
				sumGV += gx * v[k+1]
			}
			if j > 0 {
				sumG += gy
				sumGV += gy * v[k-nx]
			}
			if j < ny-1 {
				sumG += gy
				sumGV += gy * v[k+nx]
			}
			res[k] = rhs[k] + sumGV - sumG*v[k]
		}
	}
}

// restrict transfers the fine residual to the coarse right-hand side with
// R = Pᵀ full weighting (center 1, edges 1/2, corners 1/4 — see the package
// comment for why the weights sum to 4, not 1). Fine pad residuals are zero,
// so pads drop out of the gather without a special case. Sharded over coarse
// rows; each coarse node is a pure gather from the fine residual.
func restrict(fine, coarse *mgLevel, workers int) {
	if workers <= 1 {
		restrictRows(fine, coarse, 0, coarse.ny)
		return
	}
	parallelRange(coarse.ny, workers, func(lo, hi int) { restrictRows(fine, coarse, lo, hi) })
}

func restrictRows(fine, coarse *mgLevel, Jlo, Jhi int) {
	fnx, fny, cnx := fine.nx, fine.ny, coarse.nx
	res, rhs := fine.res, coarse.rhs
	for J := Jlo; J < Jhi; J++ {
		for I := 0; I < cnx; I++ {
			rhs[J*cnx+I] = gatherFW(res, fnx, fny, I, J)
		}
	}
}

// prolong adds the bilinear interpolation of the coarse correction into the
// fine iterate, skipping fine pads (pinned Dirichlet values). Formulated as
// a pull per fine node — each fine node gathers from its 1, 2 or 4 parent
// coarse nodes and writes only itself — so row sharding is conflict-free.
func prolong(coarse, fine *mgLevel, workers int) {
	if workers <= 1 {
		prolongRows(coarse, fine, 0, fine.ny)
		return
	}
	parallelRange(fine.ny, workers, func(lo, hi int) { prolongRows(coarse, fine, lo, hi) })
}

func prolongRows(coarse, fine *mgLevel, jlo, jhi int) {
	cnx, nx := coarse.nx, fine.nx
	cv, v, isPad := coarse.v, fine.v, fine.isPad
	for j := jlo; j < jhi; j++ {
		J := j / 2
		for i := 0; i < nx; i++ {
			k := j*nx + i
			if isPad[k] {
				continue
			}
			I := i / 2
			ck := J*cnx + I
			switch {
			case i%2 == 0 && j%2 == 0:
				v[k] += cv[ck]
			case i%2 == 1 && j%2 == 0:
				v[k] += 0.5 * (cv[ck] + cv[ck+1])
			case i%2 == 0 && j%2 == 1:
				v[k] += 0.5 * (cv[ck] + cv[ck+cnx])
			default:
				v[k] += 0.25 * (cv[ck] + cv[ck+1] + cv[ck+cnx] + cv[ck+cnx+1])
			}
		}
	}
}

// vcycle runs one V-cycle rooted at level l. Pre-smoothing sweeps red then
// black; post-smoothing black then red; the coarsest level runs symmetric
// sweep pairs — together that makes the cycle a symmetric operator, which is
// what lets CG use it as an SPD preconditioner.
func vcycle(levels []*mgLevel, l, workers int) {
	lv := levels[l]
	if l == len(levels)-1 {
		for s := 0; s < mgCoarsestSweeps; s++ {
			rbSweep(lv, 0, workers)
			rbSweep(lv, 1, workers)
			rbSweep(lv, 1, workers)
			rbSweep(lv, 0, workers)
		}
		return
	}
	for s := 0; s < mgPreSweeps; s++ {
		rbSweep(lv, 0, workers)
		rbSweep(lv, 1, workers)
	}
	computeResidual(lv, workers)
	next := levels[l+1]
	restrict(lv, next, workers)
	clear(next.v)
	vcycle(levels, l+1, workers)
	prolong(next, lv, workers)
	for s := 0; s < mgPostSweeps; s++ {
		rbSweep(lv, 1, workers)
		rbSweep(lv, 0, workers)
	}
}
