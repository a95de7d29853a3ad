package power

import (
	"context"

	"copack/internal/parallel"
)

// Parallel solve kernels. The cardinal rule: the numeric scheme is selected
// by PROBLEM SIZE ONLY, never by worker count, so a solve's result is
// byte-identical for every SolveOptions.Workers value.
//
//   - Below parallelNodeThreshold every kernel runs inline on the calling
//     goroutine, whatever Workers says.
//   - At or above it, CG's mat-vec is row-sharded and its dot products
//     switch to fixed-chunk reductions, and the multigrid kernels shard
//     their rows. All of them are order-independent by construction (see
//     DESIGN.md): mat-vec, residual, restriction and prolongation rows
//     write disjoint outputs; red and black half-sweeps only read the
//     opposite color, so any partition of a half-sweep commutes; dot
//     products accumulate fixed 4096-element partials that are summed in
//     chunk order regardless of which worker produced them. Workers
//     therefore only decides how the fixed work units are scheduled.
const (
	// parallelNodeThreshold is the node count at which the kernels go
	// parallel. 4096 nodes (64×64) is safely above every grid the
	// experiments use (49×49 and smaller), so all published numbers ride
	// the sequential kernels.
	parallelNodeThreshold = 4096
	// dotChunkSize is the fixed reduction granule of chunked dot
	// products. It never varies with the worker count — that is what
	// keeps the summation order, and thus the result, deterministic.
	dotChunkSize = 4096
)

// parallelRange invokes fn over a partition of [0, n) on up to workers
// goroutines. fn must write only to index-disjoint outputs; under that
// contract the result is identical for every worker count. workers <= 1
// calls fn(0, n) inline.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		fn(0, n)
		return
	}
	if workers > n {
		workers = n
	}
	chunk := (n + workers - 1) / workers
	chunks := (n + chunk - 1) / chunk
	parallel.ForEach(context.Background(), chunks, workers, func(_ context.Context, c int) {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi)
	})
}

// dotChunked is the deterministic parallel dot product: fixed-size partial
// sums, combined in chunk order. For any workers value (including 1) it
// returns the same bits. Vectors of at most one chunk take the plain
// sequential loop; longer ones differ from it only in association, so the
// scheme is picked by length, never by workers.
func dotChunked(a, b []float64, workers int) float64 {
	n := len(a)
	chunks := (n + dotChunkSize - 1) / dotChunkSize
	if chunks <= 1 {
		return dot(a, b)
	}
	partial := make([]float64, chunks)
	parallelRange(chunks, workers, func(clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * dotChunkSize
			hi := lo + dotChunkSize
			if hi > n {
				hi = n
			}
			var s float64
			for i := lo; i < hi; i++ {
				s += a[i] * b[i]
			}
			partial[c] = s
		}
	})
	var s float64
	for _, p := range partial {
		s += p
	}
	return s
}
