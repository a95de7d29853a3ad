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
// Every kernel below runs in sequence on the caller's goroutine and writes
// only the level buffers, so a V-cycle allocates nothing.
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
	diag   []float64 // each node's spring plus its branch conductances (setDiag)
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
	for _, lv := range ws.levels {
		lv.setDiag()
	}
	return true
}

// addLevel appends an (nx, ny) level to ws.levels, reusing the buffers an
// earlier solve left at that depth. The caller sets isPad and spring; diag
// (setDiag), v, rhs and res are written before they are read.
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
	lv.diag = resize(lv.diag, n)
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
// of one color reads only the opposite color, so the half-sweep's result
// does not depend on the order it visits nodes in: the boundary ring takes
// the general per-node path (rbNode), and each interior row runs over row
// subslices, where every neighbour exists and the only branch left is the
// pad test. Both divide by the level's precomputed diagonal (setDiag).
func rbSweep(lv *mgLevel, color int) {
	nx, ny, gx, gy := lv.nx, lv.ny, lv.gx, lv.gy
	for j := 0; j < ny; j++ {
		first := (color + j) % 2 // the row's first column of this color
		if j == 0 || j == ny-1 {
			for i := first; i < nx; i += 2 {
				rbNode(lv, i, j)
			}
			continue
		}
		if first == 0 {
			rbNode(lv, 0, j)
		}
		if (nx-1-first)%2 == 0 {
			rbNode(lv, nx-1, j)
		}
		k := j * nx
		v, down, up := lv.v[k:k+nx], lv.v[k-nx:k], lv.v[k+nx:k+2*nx]
		rhs, isPad, diag := lv.rhs[k:k+nx], lv.isPad[k:k+nx], lv.diag[k:k+nx]
		for i := 2 - first; i < nx-1; i += 2 {
			if isPad[i] {
				continue
			}
			var sumGV float64
			sumGV += gx * v[i-1]
			sumGV += gx * v[i+1]
			sumGV += gy * down[i]
			sumGV += gy * up[i]
			v[i] = (sumGV + rhs[i]) / diag[i]
		}
	}
}

// rbNode is rbSweep's update of one node of the boundary ring.
func rbNode(lv *mgLevel, i, j int) {
	k := j*lv.nx + i
	if !lv.isPad[k] {
		lv.v[k] = (lv.neighbourSum(i, j) + lv.rhs[k]) / lv.diag[k]
	}
}

// computeResidual fills lv.res with rhs - A·v (zero at pads), the boundary
// ring node by node and the interior over row subslices, as rbSweep does.
func computeResidual(lv *mgLevel) {
	nx, ny, gx, gy := lv.nx, lv.ny, lv.gx, lv.gy
	for j := 0; j < ny; j++ {
		if j == 0 || j == ny-1 {
			for i := 0; i < nx; i++ {
				residualNode(lv, i, j)
			}
			continue
		}
		residualNode(lv, 0, j)
		residualNode(lv, nx-1, j)
		k := j * nx
		v, down, up := lv.v[k:k+nx], lv.v[k-nx:k], lv.v[k+nx:k+2*nx]
		rhs, res, isPad, diag := lv.rhs[k:k+nx], lv.res[k:k+nx], lv.isPad[k:k+nx], lv.diag[k:k+nx]
		for i := 1; i < nx-1; i++ {
			if isPad[i] {
				res[i] = 0
				continue
			}
			var sumGV float64
			sumGV += gx * v[i-1]
			sumGV += gx * v[i+1]
			sumGV += gy * down[i]
			sumGV += gy * up[i]
			res[i] = rhs[i] + sumGV - diag[i]*v[i]
		}
	}
}

// residualNode is computeResidual's update of one node of the boundary ring.
func residualNode(lv *mgLevel, i, j int) {
	k := j*lv.nx + i
	if lv.isPad[k] {
		lv.res[k] = 0
		return
	}
	lv.res[k] = lv.rhs[k] + lv.neighbourSum(i, j) - lv.diag[k]*lv.v[k]
}

// neighbourSum is Σ g·v over the neighbours node (i, j) has, added in the
// order setDiag adds their conductances.
func (lv *mgLevel) neighbourSum(i, j int) float64 {
	k := j*lv.nx + i
	var sumGV float64
	if i > 0 {
		sumGV += lv.gx * lv.v[k-1]
	}
	if i < lv.nx-1 {
		sumGV += lv.gx * lv.v[k+1]
	}
	if j > 0 {
		sumGV += lv.gy * lv.v[k-lv.nx]
	}
	if j < lv.ny-1 {
		sumGV += lv.gy * lv.v[k+lv.nx]
	}
	return sumGV
}

// setDiag fills lv.diag with each node's diagonal: its spring plus the
// conductances of the branches it has, summed in that order, so the
// sweeps divide by the same bits a per-node sum would give.
func (lv *mgLevel) setDiag() {
	nx, ny, gx, gy := lv.nx, lv.ny, lv.gx, lv.gy
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			k := j*nx + i
			d := lv.spring[k]
			if i > 0 {
				d += gx
			}
			if i < nx-1 {
				d += gx
			}
			if j > 0 {
				d += gy
			}
			if j < ny-1 {
				d += gy
			}
			lv.diag[k] = d
		}
	}
}

// restrict transfers the fine residual to the coarse right-hand side with
// R = Pᵀ full weighting (center 1, edges 1/2, corners 1/4 — see the package
// comment for why the weights sum to 4, not 1). Fine pad residuals are zero,
// so pads drop out of the gather without a special case.
func restrict(fine, coarse *mgLevel) {
	fnx, fny, cnx := fine.nx, fine.ny, coarse.nx
	res, rhs := fine.res, coarse.rhs
	for J := 0; J < coarse.ny; J++ {
		for I := 0; I < cnx; I++ {
			rhs[J*cnx+I] = gatherFW(res, fnx, fny, I, J)
		}
	}
}

// prolong adds the bilinear interpolation of the coarse correction into the
// fine iterate, skipping fine pads (pinned Dirichlet values): each fine
// node gathers from its 1, 2 or 4 parent coarse nodes. An even fine row
// lies on coarse row J and an odd one between rows J and J+1; along a row,
// the even node of each pair sits on a coarse node and the odd one between
// two.
func prolong(coarse, fine *mgLevel) {
	cnx, nx := coarse.nx, fine.nx
	for j := 0; j < fine.ny; j++ {
		J, k := j/2, j*nx
		v, isPad := fine.v[k:k+nx], fine.isPad[k:k+nx]
		c0 := coarse.v[J*cnx : (J+1)*cnx]
		if j%2 == 0 {
			for i, I := 0, 0; i < nx; i, I = i+2, I+1 {
				if !isPad[i] {
					v[i] += c0[I]
				}
				if i+1 < nx && !isPad[i+1] {
					v[i+1] += 0.5 * (c0[I] + c0[I+1])
				}
			}
			continue
		}
		c1 := coarse.v[(J+1)*cnx : (J+2)*cnx]
		for i, I := 0, 0; i < nx; i, I = i+2, I+1 {
			if !isPad[i] {
				v[i] += 0.5 * (c0[I] + c1[I])
			}
			if i+1 < nx && !isPad[i+1] {
				v[i+1] += 0.25 * (c0[I] + c0[I+1] + c1[I] + c1[I+1])
			}
		}
	}
}

// vcycle runs one V-cycle rooted at level l. Pre-smoothing sweeps red then
// black; post-smoothing black then red; the coarsest level runs symmetric
// sweep pairs — together that makes the cycle a symmetric operator, which is
// what lets CG use it as an SPD preconditioner.
func vcycle(levels []*mgLevel, l int) {
	lv := levels[l]
	if l == len(levels)-1 {
		for s := 0; s < mgCoarsestSweeps; s++ {
			rbSweep(lv, 0)
			rbSweep(lv, 1)
			rbSweep(lv, 1)
			rbSweep(lv, 0)
		}
		return
	}
	for s := 0; s < mgPreSweeps; s++ {
		rbSweep(lv, 0)
		rbSweep(lv, 1)
	}
	computeResidual(lv)
	next := levels[l+1]
	restrict(lv, next)
	clear(next.v)
	vcycle(levels, l+1)
	prolong(next, lv)
	for s := 0; s < mgPostSweeps; s++ {
		rbSweep(lv, 1)
		rbSweep(lv, 0)
	}
}
