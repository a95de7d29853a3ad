package power

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"copack/internal/assign"
	"copack/internal/gen"
)

// fingerprint hashes a solution's voltages, iteration count and residual
// bit for bit (FNV-64a over little-endian words).
func fingerprint(s *Solution) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(bits uint64) {
		for k := range buf {
			buf[k] = byte(bits >> (8 * k))
		}
		h.Write(buf[:])
	}
	for _, v := range s.V {
		put(math.Float64bits(v))
	}
	put(uint64(s.Iterations))
	put(math.Float64bits(s.Residual))
	return fmt.Sprintf("%016x", h.Sum64())
}

type solveCase struct {
	name string
	g    GridSpec
	pads []Pad
	opt  SolveOptions
}

// workspaceCases are solves of different shapes and paths: the 49×49 chip
// grid and a 25×25 one (MGCG), 41×41 with a hot-spot current map, the
// larger 65×65 (MGCG), and the even 48×48 Jacobi CG fallback.
func workspaceCases(t *testing.T) []solveCase {
	t.Helper()
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	chip := func(n int) GridSpec {
		g := DefaultChipGrid(p)
		g.Nx, g.Ny = n, n
		return g
	}
	hot := chip(41)
	hot.CurrentMap = make([]float64, hot.Nx*hot.Ny)
	for k := range hot.CurrentMap {
		hot.CurrentMap[k] = 0.2
		if i, j := k%hot.Nx, k/hot.Nx; i > 25 && j > 25 {
			hot.CurrentMap[k] = 9
		}
	}
	var cases []solveCase
	for _, g := range []GridSpec{chip(49), chip(25), hot, chip(48)} {
		cases = append(cases, solveCase{fmt.Sprintf("%dx%d", g.Nx, g.Ny), g, PadsForAssignment(p, a, g), SolveOptions{}})
	}
	big := mgSpec()
	cases = append(cases, solveCase{"65x65", big, ringPads(big), SolveOptions{}})
	cases[2].name += "/currentmap"
	return cases
}

func sameSolution(t *testing.T, what string, got, want *Solution) {
	t.Helper()
	if got.Iterations != want.Iterations || math.Float64bits(got.Residual) != math.Float64bits(want.Residual) ||
		got.Converged != want.Converged || len(got.V) != len(want.V) {
		t.Fatalf("%s: iterations/residual/converged %d/%g/%v, want %d/%g/%v",
			what, got.Iterations, got.Residual, got.Converged, want.Iterations, want.Residual, want.Converged)
	}
	for k := range got.V {
		if math.Float64bits(got.V[k]) != math.Float64bits(want.V[k]) {
			t.Fatalf("%s: V[%d] = %v, want %v", what, k, got.V[k], want.V[k])
		}
	}
}

// A reused workspace leaves no trace: every solve, whatever ran in the
// workspace before it, must equal the same solve on a fresh workspace (what
// the first solve in a fresh process gets from the pool) — forward and
// backward through one shared workspace, and through the pool from four
// goroutines at once.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	cases := workspaceCases(t)
	ref := make([]*Solution, len(cases))
	for i, c := range cases {
		sol, err := new(workspace).solve(context.Background(), c.g, c.pads, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !sol.Converged {
			t.Fatalf("%s: reference did not converge", c.name)
		}
		ref[i] = sol
	}

	shared := new(workspace)
	for pass, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}} {
		for _, i := range order {
			sol, err := shared.solve(context.Background(), cases[i].g, cases[i].pads, cases[i].opt)
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, fmt.Sprintf("shared workspace, pass %d, %s", pass, cases[i].name), sol, ref[i])
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for gr := 0; gr < 4; gr++ {
		wg.Add(1)
		go func(gr int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for k := range cases {
					i := (k + gr + round) % len(cases)
					sol, err := Solve(cases[i].g, cases[i].pads, cases[i].opt)
					if err != nil {
						errs <- err
						return
					}
					if fingerprint(sol) != fingerprint(ref[i]) {
						errs <- fmt.Errorf("goroutine %d round %d: %s differs from the fresh-workspace solve", gr, round, cases[i].name)
						return
					}
				}
			}
		}(gr)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A warm default solve allocates only its result: V (18.8 KiB at 49×49)
// and the Solution. The allocation count must not depend on the tolerance,
// so nothing allocates per iteration — on the chip grids and on the large
// 65×65 (MGCG) and 70×70 (Jacobi CG) grids, whose dot products span
// several fixed-size chunks.
func TestSolveWarmAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	// A collection could empty the pool between runs and charge a cold
	// workspace to the measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// sync.Pool keeps a returned workspace in the current P's private
	// slot, which a Get from another P cannot see: a goroutine that
	// migrates between runs would build a cold workspace. One P pins the
	// pool to one slot.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var cases []solveCase
	for _, n := range []int{49, 41} {
		g := DefaultChipGrid(p)
		g.Nx, g.Ny = n, n
		cases = append(cases, solveCase{fmt.Sprintf("%dx%d", n, n), g, PadsForAssignment(p, a, g), SolveOptions{}})
	}
	for _, g := range []GridSpec{mgSpec(), bigSpec()} {
		cases = append(cases, solveCase{fmt.Sprintf("%dx%d", g.Nx, g.Ny), g, ringPads(g), SolveOptions{}})
	}
	const runs = 20
	for _, c := range cases {
		// V's 8 bytes a node plus a quarter: room for the allocator's size
		// class and the Solution header, not for one more vector-sized
		// buffer.
		maxBytes := uint64(10 * c.g.Nx * c.g.Ny)
		var counts []uint64
		for _, tol := range []float64{1e-6, 1e-12} {
			opt := c.opt
			opt.Tol = tol
			solve := func() {
				sol, err := Solve(c.g, c.pads, opt)
				if err != nil || !sol.Converged {
					t.Fatalf("%s tol %g: err %v", c.name, tol, err)
				}
			}
			solve() // warm-up
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for r := 0; r < runs; r++ {
				solve()
			}
			runtime.ReadMemStats(&after)
			allocs := (after.Mallocs - before.Mallocs) / runs
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			t.Logf("%s tol %g: %d allocs, %.1f KiB per solve", c.name, tol, allocs, float64(bytes)/1024)
			if bytes > maxBytes {
				t.Errorf("%s tol %g: warm solve allocates %.1f KiB, want <= %.1f KiB", c.name, tol, float64(bytes)/1024, float64(maxBytes)/1024)
			}
			counts = append(counts, allocs)
		}
		if counts[0] != counts[1] {
			t.Errorf("%s: %d allocs at tol 1e-6 but %d at 1e-12: something allocates per iteration", c.name, counts[0], counts[1])
		}
	}
}
