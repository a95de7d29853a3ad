package exchange

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/netlist"
	"copack/internal/power"
	"copack/internal/stack"
)

// Drive the tracker with 30k random legal adjacent swaps, priced and
// committed (about 10k supply moves, so the proxy resyncs twice), and
// verify its caches against full recomputation throughout, the slot ↔
// global-index maps and the supply list included. CommitMove keeps the
// priced after-cost unless the commit resynced the proxy, so the cached
// cost must equal cost() bit for bit after every commit.
func TestTrackerMatchesFullRecompute(t *testing.T) {
	const steps = 30000
	for _, tiers := range []int{1, 4} {
		p := gen.MustBuild(gen.Table1()[1], gen.Options{Seed: 2, Tiers: tiers})
		a, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		st := newState(p, a, Options{}.withDefaults(p), nil)

		rng := rand.New(rand.NewSource(7))
		for k := 0; k < steps; {
			side := st.sides[rng.Intn(len(st.sides))]
			i := 1 + rng.Intn(len(st.a.Slots[side])-1)
			j := i + 1
			q := p.Pkg.Quadrant(side)
			ba, _ := q.Ball(st.a.Slots[side][i-1])
			bb, _ := q.Ball(st.a.Slots[side][j-1])
			if ba.Y == bb.Y {
				continue // keep it legal, like the real move generator
			}
			st.price(side, i, j)
			st.CommitMove()
			k++
			if math.Float64bits(st.cur) != math.Float64bits(st.cost()) {
				t.Fatalf("tiers %d, step %d: cached cost %v, cost() %v", tiers, k, st.cur, st.cost())
			}
			if k%250 == 0 {
				checkLocate(t, st, k)
				wantProxy, wantOmega := st.trk.verify(p, st.a)
				if math.Abs(st.trk.proxy-wantProxy) > 1e-6*wantProxy+1e-12 {
					t.Fatalf("tiers %d, step %d: proxy cache %v, recompute %v", tiers, k, st.trk.proxy, wantProxy)
				}
				if tiers > 1 && st.trk.omega != wantOmega {
					t.Fatalf("tiers %d, step %d: omega cache %d, recompute %d", tiers, k, st.trk.omega, wantOmega)
				}
			}
		}
		// Final exact check.
		checkLocate(t, st, steps)
		wantProxy, wantOmega := st.trk.verify(p, st.a)
		if math.Abs(st.trk.proxy-wantProxy) > 1e-6*wantProxy+1e-12 {
			t.Fatalf("tiers %d: final proxy cache %v, recompute %v", tiers, st.trk.proxy, wantProxy)
		}
		if tiers > 1 && st.trk.omega != wantOmega {
			t.Fatalf("tiers %d: final omega cache %d, recompute %d", tiers, st.trk.omega, wantOmega)
		}
	}
}

// checkLocate verifies the tracker's slot ↔ global-index maps and supply
// list against the current order: locate inverts globalOf on every slot,
// and the supply list, in rank order, names exactly the slots that hold a
// power pad (the default watched class).
func checkLocate(t *testing.T, st *state, step int) {
	t.Helper()
	supply := 0
	for _, side := range bga.Sides() {
		for i, id := range st.a.Slots[side] {
			g := st.trk.globalOf(side, i+1)
			if gs, gi := st.trk.locate(g); gs != side || gi != i+1 {
				t.Fatalf("step %d: locate(globalOf(%v, %d) = %d) = (%v, %d)", step, side, i+1, g, gs, gi)
			}
			power := st.p.Circuit.Net(id).Class == netlist.Power
			if st.trk.isSupply(g) != power {
				t.Fatalf("step %d: %v slot %d: isSupply %v, net class power %v", step, side, i+1, st.trk.isSupply(g), power)
			}
			if power {
				supply++
			}
		}
	}
	if len(st.trk.supplyIdx) != supply {
		t.Fatalf("step %d: supply list holds %d pads, order has %d", step, len(st.trk.supplyIdx), supply)
	}
	for r, g := range st.trk.supplyIdx {
		side, i := st.trk.locate(g)
		if id := st.a.Slots[side][i-1]; st.p.Circuit.Net(id).Class != netlist.Power || st.trk.rankOf[g] != r {
			t.Fatalf("step %d: supply rank %d at global %d = %v slot %d holds net %d (rankOf %d)",
				step, r, g, side, i, id, st.trk.rankOf[g])
		}
	}
}

// After a full anneal — ~10⁵ priced moves, tens of thousands of applies —
// the incremental proxy must still match a from-scratch recompute within
// 1e-9 *without* any final resync. The periodic resync every
// resyncInterval applies is what bounds the drift; if this test fails,
// tighten resyncInterval. (RunContext additionally resyncs once before
// restart selection, so selection sees zero drift; this test deliberately
// goes through the internal pieces to measure the raw bound.)
func TestTrackerDriftBoundedAfterFullAnneal(t *testing.T) {
	for _, tiers := range []int{1, 4} {
		p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 6, Tiers: tiers})
		a, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Seed: 11, Lambda: 1, Rho: 1, Phi: 0.4}
		st := newState(p, a, opt, nil)
		sched := anneal.Schedule{MovesPerTemp: 4 * p.Circuit.NumNets(), StallPlateaus: 25}
		rng := anneal.NewRand(opt.Seed)
		stats, err := anneal.MinimizeContext(context.Background(), st, st.cost(), sched, rng)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Proposed < 1000 {
			t.Fatalf("tiers=%d: anneal too short to measure drift (%d proposals)", tiers, stats.Proposed)
		}
		wantProxy, wantOmega := st.trk.verify(p, st.a)
		if drift := math.Abs(st.trk.proxy - wantProxy); drift > 1e-9 {
			t.Errorf("tiers=%d: incremental proxy drifted %.3g from recompute after %d applies (interval %d too long)",
				tiers, drift, st.trk.applies, resyncInterval)
		}
		if tiers > 1 && st.trk.omega != wantOmega {
			t.Errorf("tiers=%d: omega cache %d, recompute %d", tiers, st.trk.omega, wantOmega)
		}
	}
}

// Committing a swap and then its inverse must restore the caches (modulo
// the bounded proxy drift, which resync clears).
func TestTrackerRevertible(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 3, Tiers: 2})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := newState(p, a, Options{}.withDefaults(p), nil)

	proxy0, omega0 := st.trk.proxy, st.trk.omega
	rng := rand.New(rand.NewSource(4))
	for k := 0; k < 200; k++ {
		side := bga.Sides()[rng.Intn(4)]
		i := 1 + rng.Intn(len(st.a.Slots[side])-1)
		st.price(side, i, i+1)
		st.CommitMove()
		st.price(side, i, i+1) // the inverse swap
		st.CommitMove()
		if st.trk.omega != omega0 {
			t.Fatalf("step %d: omega drifted %d -> %d", k, omega0, st.trk.omega)
		}
		if math.Abs(st.trk.proxy-proxy0) > 1e-9 {
			t.Fatalf("step %d: proxy drifted %v -> %v", k, proxy0, st.trk.proxy)
		}
	}
}

// verify recomputes the tracker's caches from scratch.
func (tr *tracker) verify(p *core.Problem, a *core.Assignment) (proxy float64, omega int) {
	return power.ProxyForAssignment(p, a), stack.OmegaAssignment(p, a)
}
