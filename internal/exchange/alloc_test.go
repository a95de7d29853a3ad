package exchange

import (
	"fmt"
	"math"
	"testing"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/gen"
)

// hotLoopState builds the annealing state both hot-loop checks below
// drive: circuit 3's DFA order at the given tier count.
func hotLoopState(tb testing.TB, tiers int) *state {
	tb.Helper()
	p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1, Tiers: tiers})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return newState(p, a, Options{Seed: 1}.withDefaults(p), nil)
}

// proposeTemp is the fixed temperature proposeOnce accepts uphill moves
// at: the annealer's default initial temperature. Every move from the DFA
// start is uphill, so a greedy rule would commit nothing; at this
// temperature most moves commit, as on an anneal's early plateaus, and
// the commit path is measured too.
const proposeTemp = 1.0

// proposeOnce is one hot-loop proposal without an annealer: sample and
// price a move, then commit or reject it by the Metropolis rule at
// proposeTemp. It reports whether the move committed.
func proposeOnce(st *state, rng *anneal.Rand) bool {
	delta, ok := st.PriceMove(rng)
	if !ok {
		return false
	}
	if delta <= 0 || rng.Float64() < math.Exp(-delta/proposeTemp) {
		st.CommitMove()
		return true
	}
	st.RejectMove()
	return false
}

// TestPricedMoveZeroAllocs is the CI regression tooth for the O(1) hot
// loop: pricing a move — and committing or rejecting it — must allocate
// nothing, for both 2-D and stacking problems. Any allocation here is a
// performance bug (escaping closure, map churn, forgotten scratch buffer).
func TestPricedMoveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, tiers := range []int{1, 4} {
		st := hotLoopState(t, tiers)
		rng := anneal.NewRand(1)
		// Warm up past lazy initialization and across a resync boundary.
		for k := 0; k < 2*resyncInterval; k++ {
			proposeOnce(st, rng)
		}
		avg := testing.AllocsPerRun(1000, func() { proposeOnce(st, rng) })
		if avg != 0 {
			t.Errorf("tiers=%d: priced move allocates %.2f objects/move, want 0", tiers, avg)
		}
	}
}

// BenchmarkMovePricing measures the hot loop in isolation, one proposal
// per op, and reports the share of ops that commit (commits/op). psi1
// samples only supply pads (the 2-D exchange), psi4 any pad (a 4-tier
// stack). allocs/op must stay 0, as TestPricedMoveZeroAllocs asserts.
func BenchmarkMovePricing(b *testing.B) {
	for _, tiers := range []int{1, 4} {
		b.Run(fmt.Sprintf("psi%d", tiers), func(b *testing.B) {
			st := hotLoopState(b, tiers)
			rng := anneal.NewRand(1)
			commits := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if proposeOnce(st, rng) {
					commits++
				}
			}
			b.ReportMetric(float64(commits)/float64(b.N), "commits/op")
		})
	}
}
