package exchange

import (
	"math"
	"math/rand"
	"testing"

	"copack/internal/bga"
	"copack/internal/power"
	"copack/internal/stack"
)

// TestIncrementalCostMatchesFromScratch is the differential half of the
// O(1)-pricing contract: drive a state through thousands of priced moves
// with random accept/reject decisions and, at EVERY accepted move, compare
// each incrementally maintained quantity against a from-scratch recompute
// over the current assignment:
//
//   - idCache[side]  vs  sections[side].id(slots)   (exact — integers)
//   - trk.omega      vs  stack.OmegaAssignment      (exact — small integer)
//   - trk.proxy      vs  power.ProxyForAssignment   (1e-9 relative; the
//     tracker accumulates float deltas between resyncs)
//   - cost()         vs  the same Eq 3 formula over the recomputed parts
//
// The anneal only ever sees cost(), so drift in any cache would silently
// bias the search; this test bounds that drift at every step rather than
// only at the restart-selection boundary (which eq3Terms already guards).
func TestIncrementalCostMatchesFromScratch(t *testing.T) {
	for _, tiers := range []int{1, 4} {
		st := newTestState(t, 1, 3, tiers, Options{})
		rng := rand.New(rand.NewSource(21))
		dec := rand.New(rand.NewSource(87))

		accepted, moves := 0, 0
		for moves < 3*resyncInterval && accepted < 6000 {
			moves++
			_, ok := st.PriceMove(rng)
			if !ok {
				continue
			}
			if dec.Intn(3) == 0 {
				st.RejectMove()
				continue
			}
			st.CommitMove()
			accepted++

			// From-scratch ID per side over the live order.
			idWorst := 0
			for _, side := range bga.Sides() {
				fresh := st.sections[side].id(st.a.Slots[side])
				if st.idCache[side] != fresh {
					t.Fatalf("tiers=%d move %d: idCache[%v] = %d, from-scratch id = %d",
						tiers, moves, side, st.idCache[side], fresh)
				}
				if fresh > idWorst {
					idWorst = fresh
				}
			}

			freshProxy := power.ProxyForAssignment(st.p, st.a)
			if relErr(st.trk.proxy, freshProxy) > 1e-9 {
				t.Fatalf("tiers=%d move %d: tracker proxy %v, from-scratch %v",
					tiers, moves, st.trk.proxy, freshProxy)
			}

			freshOmega := stack.OmegaAssignment(st.p, st.a)
			if st.trk.omega != freshOmega {
				t.Fatalf("tiers=%d move %d: tracker omega %v, from-scratch %v",
					tiers, moves, st.trk.omega, freshOmega)
			}

			want := st.lambda*freshProxy/st.proxy0 + st.rho*float64(idWorst)
			if st.p.Tiers > 1 {
				want += st.phi * float64(freshOmega) / st.omega0
			}
			if got := st.cost(); relErr(got, want) > 1e-9 {
				t.Fatalf("tiers=%d move %d: incremental cost %v, from-scratch %v",
					tiers, moves, got, want)
			}
		}
		if accepted == 0 {
			t.Fatalf("tiers=%d: no moves accepted; the differential loop tested nothing", tiers)
		}
		t.Logf("tiers=%d: %d accepted of %d moves, all caches exact", tiers, accepted, moves)
	}
}

// relErr is |a-b| scaled by the larger magnitude (absolute near zero).
func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}
