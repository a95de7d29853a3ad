package exchange

import (
	"fmt"
	"testing"

	"copack/internal/assign"
	"copack/internal/faultinject"
	"copack/internal/gen"
)

// These tests pin the exchange's objective contract as it stands. Eq 3's
// minimum is the start order: the start scores ID = 0 by definition, and
// no annealed state has been seen to score below it. A full run returns
// its final state, as the paper's Fig 14 does, not the best one seen. An
// interrupted restart that Eq 3 scores worse than its start falls back to
// the start, so a cut single-anneal exchange returns the DFA order.

// TestBestSeenIsTheStart: at default options, over the Table 1 circuits,
// ψ ∈ {1, 4} and seeds 1–3, the lowest Eq 3 cost the winning anneal ever
// saw is exactly the DFA start's cost.
func TestBestSeenIsTheStart(t *testing.T) {
	for _, tc := range gen.Table1() {
		for _, psi := range []int{1, 4} {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/psi%d/seed%d", tc.Name, psi, seed)
				p := gen.MustBuild(tc, gen.Options{Seed: seed, Tiers: psi})
				dfaA, err := assign.DFA(p, assign.DFAOptions{})
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(p, dfaA, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				start, err := score(p, dfaA, dfaA, Options{Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if res.Stats.BestCost != start {
					t.Errorf("%s: best-seen cost %v, start cost %v", name, res.Stats.BestCost, start)
				}
			}
		}
	}
}

// TestHalfCutReturnsTheStart: an exchange cut at half of a full run's
// plateaus comes back Interrupted with the DFA order, for every circuit
// at ψ = 1 and ψ = 4, seed 1.
func TestHalfCutReturnsTheStart(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	for _, tc := range gen.Table1() {
		for _, psi := range []int{1, 4} {
			name := fmt.Sprintf("%s/psi%d", tc.Name, psi)
			p := gen.MustBuild(tc, gen.Options{Seed: 1, Tiers: psi})
			dfaA, err := assign.DFA(p, assign.DFAOptions{})
			if err != nil {
				t.Fatal(err)
			}
			full, err := Run(p, dfaA, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			faultinject.Arm(faultinject.Fault{Point: faultinject.AnnealPlateau, After: full.Stats.Plateaus / 2})
			cut, err := Run(p, dfaA, Options{Seed: 1})
			faultinject.Reset()
			if err != nil {
				t.Fatal(err)
			}
			if !cut.Interrupted {
				t.Errorf("%s: cut at plateau %d of %d not marked Interrupted", name, full.Stats.Plateaus/2, full.Stats.Plateaus)
			}
			if !sameAssignment(cut.Assignment, dfaA) {
				t.Errorf("%s: cut exchange did not return the DFA order", name)
			}
		}
	}
}
