package assign

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"testing"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/netlist"
	"copack/internal/optimal"
)

// tinyCircuit is small enough (8 nets per quadrant over 4 lines) for the
// exhaustive legal-order oracle: multinomial(2,2,2,2) = 2520 orders.
func tinyCircuit() gen.TestCircuit {
	return gen.TestCircuit{Name: "tiny", Fingers: 32, BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
}

// TestMCMFFeasibleLegal is the feasibility property test: on every Table 1
// circuit and a spread of generator seeds, MCMF must assign each net exactly
// one slot (a permutation of the quadrant's nets) and the order must be
// monotonic-legal — for the default blend, a congestion-only blend and an
// IR-only blend.
func TestMCMFFeasibleLegal(t *testing.T) {
	opts := []MCMFOptions{
		{},
		{Lambda: -1}, // congestion only
		{Rho: -1},    // IR only
	}
	for _, tc := range gen.Table1() {
		for _, seed := range []int64{1, 7} {
			p := gen.MustBuild(tc, gen.Options{Seed: seed})
			for oi, opt := range opts {
				a, err := MCMF(p, opt)
				if err != nil {
					t.Fatalf("%s seed %d opt %d: %v", tc.Name, seed, oi, err)
				}
				if err := core.CheckMonotonic(p, a); err != nil {
					t.Fatalf("%s seed %d opt %d: illegal order: %v", tc.Name, seed, oi, err)
				}
				for _, side := range bga.Sides() {
					q := p.Pkg.Quadrant(side)
					seen := make(map[netlist.ID]bool, q.NumNets())
					for _, id := range a.Slots[side] {
						if _, ok := q.Ball(id); !ok {
							t.Fatalf("%s %v: net %d not in quadrant", tc.Name, side, id)
						}
						if seen[id] {
							t.Fatalf("%s %v: net %d assigned twice", tc.Name, side, id)
						}
						seen[id] = true
					}
					if len(seen) != q.NumNets() {
						t.Fatalf("%s %v: %d nets assigned, want %d", tc.Name, side, len(seen), q.NumNets())
					}
				}
			}
		}
	}
}

// TestMCMFMatchesOracle pins the optimality claim: with the IR term
// disabled, the flow matching plus uncrossing achieves exactly the minimum
// congestion cost over every monotonic-legal order (the L1 exchange
// inequality makes uncrossing lossless for the congestion-only blend).
func TestMCMFMatchesOracle(t *testing.T) {
	opt := MCMFOptions{Lambda: -1}
	for _, seed := range []int64{1, 2, 3, 5} {
		p := gen.MustBuild(tinyCircuit(), gen.Options{Seed: seed})
		for _, side := range bga.Sides() {
			order := MCMFQuadrant(p, side, opt)
			got, err := MCMFOrderCost(p, side, order, opt)
			if err != nil {
				t.Fatal(err)
			}
			best, err := optimal.MinOrderCost(p, side, 0, func(o []netlist.ID) (int64, error) {
				return MCMFOrderCost(p, side, o, opt)
			})
			if err != nil {
				t.Fatal(err)
			}
			if got != best.Cost {
				t.Errorf("seed %d %v: MCMF cost %d, oracle minimum %d over %d legal orders",
					seed, side, got, best.Cost, best.Explored)
			}
		}
	}
}

// TestMCMFBlendUpperBound checks the default blend is a sane heuristic:
// never worse than the oracle by more than the uncrossing slack, and never
// better (the oracle minimum is a true lower bound for any legal order).
func TestMCMFBlendUpperBound(t *testing.T) {
	opt := MCMFOptions{}
	p := gen.MustBuild(tinyCircuit(), gen.Options{Seed: 4})
	for _, side := range bga.Sides() {
		order := MCMFQuadrant(p, side, opt)
		got, err := MCMFOrderCost(p, side, order, opt)
		if err != nil {
			t.Fatal(err)
		}
		best, err := optimal.MinOrderCost(p, side, 0, func(o []netlist.ID) (int64, error) {
			return MCMFOrderCost(p, side, o, opt)
		})
		if err != nil {
			t.Fatal(err)
		}
		if got < best.Cost {
			t.Errorf("%v: MCMF cost %d beats the exhaustive minimum %d — oracle or cost bug", side, got, best.Cost)
		}
	}
}

func hashAssignment(a *core.Assignment) string {
	h := fnv.New64a()
	for _, side := range bga.Sides() {
		for _, id := range a.Slots[side] {
			fmt.Fprintf(h, "%d,", id)
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestMCMFDeterministic pins the engine's output bit-for-bit: repeated runs,
// scratch reuse, and any GOMAXPROCS value must produce the identical order
// (the solver is a pure int64 function with lowest-index tie-breaks).
func TestMCMFDeterministic(t *testing.T) {
	const want = "fefbe31ad69c53b5" // circuit3, Seed 1, default options
	p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1})
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, prev} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			a, err := MCMF(p, MCMFOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got := hashAssignment(a); got != want {
				t.Fatalf("GOMAXPROCS=%d run %d: hash %s, want %s", procs, run, got, want)
			}
		}
	}
}

// TestMCMFWarmScratchAllocs is the CI allocation gate for the warm solver:
// with a primed scratch arena, a whole quadrant solve allocates only the
// returned order slice.
func TestMCMFWarmScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1})
	s := &MCMFScratch{}
	MCMFQuadrantScratch(p, bga.Bottom, MCMFOptions{}, s) // prime the arena
	allocs := testing.AllocsPerRun(20, func() {
		MCMFQuadrantScratch(p, bga.Bottom, MCMFOptions{}, s)
	})
	if allocs > 1 {
		t.Errorf("warm MCMFQuadrantScratch allocates %.1f objects/run, want ≤ 1 (the order slice)", allocs)
	}
}

// TestMCMFScratchReuseIdentical proves warm reuse cannot change results:
// a shared scratch cycled across quadrants and circuits reproduces the
// fresh-scratch output exactly.
func TestMCMFScratchReuseIdentical(t *testing.T) {
	s := &MCMFScratch{}
	for _, tc := range []gen.TestCircuit{gen.Table1()[4], tinyCircuit(), gen.Table1()[0]} {
		p := gen.MustBuild(tc, gen.Options{Seed: 1})
		for _, side := range bga.Sides() {
			warm := MCMFQuadrantScratch(p, side, MCMFOptions{}, s)
			fresh := MCMFQuadrant(p, side, MCMFOptions{})
			if len(warm) != len(fresh) {
				t.Fatalf("%s %v: length %d vs %d", tc.Name, side, len(warm), len(fresh))
			}
			for i := range warm {
				if warm[i] != fresh[i] {
					t.Fatalf("%s %v: slot %d: %d vs %d", tc.Name, side, i, warm[i], fresh[i])
				}
			}
		}
	}
}

// TestDFAPooledScratchStable pins the satellite wiring: DFA's pooled arena
// must not change its output, and warm calls must stay within the small
// fixed per-call allocation budget (orders + assignment bookkeeping — the
// Fenwick tree comes from the pool).
func TestDFAPooledScratchStable(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[4], gen.Options{Seed: 1})
	a, err := DFA(p, DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, side := range bga.Sides() {
		direct := DFAQuadrant(p.Pkg.Quadrant(side), DFAOptions{})
		for i, id := range a.Slots[side] {
			if direct[i] != id {
				t.Fatalf("%v slot %d: pooled DFA gives %d, direct gives %d", side, i, id, direct[i])
			}
		}
	}
	if raceEnabled {
		return // the alloc half is meaningless under -race
	}
	DFA(p, DFAOptions{}) // prime the pool
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DFA(p, DFAOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	// Measured: 25 objects/run warm (orders + assignment bookkeeping);
	// the pre-pool code paid ~3 more (scratch struct + tree + row buffer)
	// per call. The budget sits in between so losing the pool fails.
	if allocs > 26 {
		t.Errorf("warm DFA allocates %.1f objects/run, want ≤ 26 (pooled scratch)", allocs)
	}
}
