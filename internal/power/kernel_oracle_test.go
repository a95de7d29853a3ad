package power

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"copack/internal/assign"
	"copack/internal/gen"
)

// The solver's kernels run an interior fast path over row subslices beside
// a general path for the boundary ring, and divide by a precomputed
// diagonal. The generic kernels below are the ones they replaced, kept
// unchanged as oracles: every fast kernel must give the same bits as its
// reference on the same inputs.

// rbSweepRef runs one half-sweep of plain Gauss-Seidel (ω=1 — a smoother wants
// to kill high-frequency error, over-relaxation only helps the low
// frequencies the coarse grids already handle) over the given color. A node
// of one color reads only the opposite color, so the half-sweep's result
// does not depend on the order it visits nodes in.
func rbSweepRef(lv *mgLevel, color int) {
	nx, ny, gx, gy := lv.nx, lv.ny, lv.gx, lv.gy
	v, rhs, isPad, spring := lv.v, lv.rhs, lv.isPad, lv.spring
	for j := 0; j < ny; j++ {
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

// computeResidualRef fills lv.res with rhs - A·v (zero at pads).
func computeResidualRef(lv *mgLevel) {
	nx, ny, gx, gy := lv.nx, lv.ny, lv.gx, lv.gy
	v, rhs, res, isPad, spring := lv.v, lv.rhs, lv.res, lv.isPad, lv.spring
	for j := 0; j < ny; j++ {
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

// prolongRef adds the bilinear interpolation of the coarse correction into the
// fine iterate, skipping fine pads (pinned Dirichlet values): each fine
// node gathers from its 1, 2 or 4 parent coarse nodes.
func prolongRef(coarse, fine *mgLevel) {
	cnx, nx := coarse.nx, fine.nx
	cv, v, isPad := coarse.v, fine.v, fine.isPad
	for j := 0; j < fine.ny; j++ {
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

// mulRef computes y = A·x for the eliminated Laplacian.
func (ws *workspace) mulRef(x, y []float64) {
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

// kernelCase is one grid and pad set whose level stack the kernels run on.
type kernelCase struct {
	name string
	g    GridSpec
	pads []Pad
}

// kernelCases covers the 49×49 chip grid under the DFA ring pads of the
// five Table 1 circuits and under an interior flip-chip array, a 41×41
// hot-spot current map, and 25×25 and 65×65 grids.
func kernelCases(t *testing.T) []kernelCase {
	t.Helper()
	var cases []kernelCase
	var chip GridSpec
	for c, tc := range gen.Table1() {
		p := gen.MustBuild(tc, gen.Options{Seed: 1})
		a, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		g := DefaultChipGrid(p)
		cases = append(cases, kernelCase{fmt.Sprintf("circuit%d/49x49", c+1), g, PadsForAssignment(p, a, g)})
		if c == 0 {
			chip = g
		}
	}
	cases = append(cases, kernelCase{"flipchip/49x49", chip, FlipChipPads(chip, 36)})
	hot := chip
	hot.Nx, hot.Ny = 41, 41
	hot.CurrentMap = make([]float64, hot.Nx*hot.Ny)
	for k := range hot.CurrentMap {
		hot.CurrentMap[k] = 0.2
		if i, j := k%hot.Nx, k/hot.Nx; i > 25 && j > 25 {
			hot.CurrentMap[k] = 9
		}
	}
	cases = append(cases, kernelCase{"hotspot/41x41", hot, RingPads(hot, 24)})
	small := chip
	small.Nx, small.Ny = 25, 25
	cases = append(cases, kernelCase{"25x25", small, RingPads(small, 12)})
	big := mgSpec()
	cases = append(cases, kernelCase{"65x65", big, ringPads(big)})
	return cases
}

// fill sets s to seeded values in [−1, 1).
func fill(rng *rand.Rand, s []float64) {
	for k := range s {
		s[k] = 2*rng.Float64() - 1
	}
}

// twin returns a copy of lv whose v, rhs and res are its own, so a kernel
// and its reference can each write their copy.
func twin(lv *mgLevel) *mgLevel {
	c := *lv
	c.v = append([]float64(nil), lv.v...)
	c.rhs = append([]float64(nil), lv.rhs...)
	c.res = append([]float64(nil), lv.res...)
	return &c
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s: entry %d is %v, reference %v", what, k, got[k], want[k])
		}
	}
}

// TestKernelsMatchReference runs each fast kernel and its reference on the
// same random inputs, on every level of each case's hierarchy, and
// requires equal bits.
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, c := range kernelCases(t) {
		ws := withPads(c.g, c.pads)
		if !ws.buildHierarchy(c.g) {
			t.Fatalf("%s: no multigrid hierarchy", c.name)
		}
		for l, lv := range ws.levels {
			for color := 0; color < 2; color++ {
				fill(rng, lv.v)
				fill(rng, lv.rhs)
				ref := twin(lv)
				rbSweep(lv, color)
				rbSweepRef(ref, color)
				sameBits(t, fmt.Sprintf("%s level %d: rbSweep color %d", c.name, l, color), lv.v, ref.v)
			}
			fill(rng, lv.v)
			fill(rng, lv.rhs)
			fill(rng, lv.res)
			ref := twin(lv)
			computeResidual(lv)
			computeResidualRef(ref)
			sameBits(t, fmt.Sprintf("%s level %d: computeResidual", c.name, l), lv.res, ref.res)
			if l == 0 {
				continue
			}
			fine := ws.levels[l-1]
			fill(rng, lv.v)
			fill(rng, fine.v)
			ref = twin(fine)
			prolong(lv, fine)
			prolongRef(lv, ref)
			sameBits(t, fmt.Sprintf("%s level %d: prolong", c.name, l), fine.v, ref.v)
		}
		x := make([]float64, len(ws.unknowns))
		fill(rng, x)
		got, want := make([]float64, len(x)), make([]float64, len(x))
		ws.mul(x, got)
		ws.mulRef(x, want)
		sameBits(t, c.name+": mul", got, want)
	}
}
