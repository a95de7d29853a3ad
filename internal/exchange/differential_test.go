package exchange

import (
	"math"
	"math/rand"
	"testing"

	"copack/internal/anneal"
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
//   - the slot-indexed tables: rows[side][i] vs the line of the net in
//     slot i, and the tracker's side and group of every global index vs
//     the ring layout (checkSlotTables)
//
// The anneal only ever sees cost(), so drift in any cache would silently
// bias the search; this test bounds that drift at every step rather than
// only at the restart-selection boundary (which eq3Terms already guards).
func TestIncrementalCostMatchesFromScratch(t *testing.T) {
	for _, tiers := range []int{1, 4} {
		st := newTestState(t, 1, 3, tiers, Options{})
		rng := anneal.NewRand(21)
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
			checkSlotTables(t, st, moves)

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

// checkSlotTables compares the state's slot-indexed tables with values
// computed from scratch: rows[side][i] is the ball line of the net in slot
// i, and global index g, counted along the ring in side order, lies on
// side sideOf[g] and, when stacking, in ω group g/ψ.
func checkSlotTables(t *testing.T, st *state, step int) {
	t.Helper()
	g := 0
	for _, side := range bga.Sides() {
		q := st.p.Pkg.Quadrant(side)
		if len(st.rows[side]) != len(st.a.Slots[side]) {
			t.Fatalf("step %d: %v has %d row entries for %d slots", step, side, len(st.rows[side]), len(st.a.Slots[side]))
		}
		for i, id := range st.a.Slots[side] {
			ball, ok := q.Ball(id)
			if !ok || st.rows[side][i] != int32(ball.Y) {
				t.Fatalf("step %d: rows[%v][%d] = %d, net %d sits on line %d", step, side, i, st.rows[side][i], id, ball.Y)
			}
			if got := bga.Side(st.trk.sideOf[g]); got != side {
				t.Fatalf("step %d: sideOf[%d] = %v, want %v", step, g, got, side)
			}
			if st.trk.psi > 1 && int(st.trk.group[g]) != g/st.trk.psi {
				t.Fatalf("step %d: group[%d] = %d, want %d", step, g, st.trk.group[g], g/st.trk.psi)
			}
			g++
		}
	}
	if len(st.trk.sideOf) != g || (st.trk.psi > 1 && len(st.trk.group) != g) {
		t.Fatalf("step %d: tables cover %d/%d global indices, the ring has %d", step, len(st.trk.sideOf), len(st.trk.group), g)
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
