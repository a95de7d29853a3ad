package exchange

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/netlist"
)

// newTestState builds a full annealing state for white-box tests.
func newTestState(t *testing.T, circuit int, genSeed int64, tiers int, opt Options) *state {
	t.Helper()
	p := gen.MustBuild(gen.Table1()[circuit], gen.Options{Seed: genSeed, Tiers: tiers})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return newState(p, a, opt.withDefaults(p), nil)
}

// checkSections compares every incremental Eq 2 cache of a state against
// from-scratch recomputation: per-line section counts, delimiter ordinals,
// the count-of-counts multiset and its max, and idCache.
func checkSections(t *testing.T, st *state, step int) {
	t.Helper()
	for _, side := range bga.Sides() {
		sd := &st.sections[side]
		order := st.a.Slots[side]
		for k, y := range sd.lines {
			want := sd.counts(order, y)
			if len(want) != len(sd.cur[k]) {
				t.Fatalf("step %d side %v line %d: %d cached sections, recompute has %d",
					step, side, y, len(sd.cur[k]), len(want))
			}
			for c := range want {
				if sd.cur[k][c] != want[c] {
					t.Fatalf("step %d side %v line %d: cur = %v, recompute = %v",
						step, side, y, sd.cur[k], want)
				}
			}
		}
		// Delimiter ordinals: walking the order must reproduce them.
		seen := make(map[int32]int32)
		for _, id := range order {
			if y := sd.row[id]; y > 0 && int(y) < len(sd.lineIdx) && sd.lineIdx[y] >= 0 {
				seen[y]++
				if got := sd.ord[id]; got != seen[y] {
					t.Fatalf("step %d side %v: net %d ordinal = %d, want %d",
						step, side, id, got, seen[y])
				}
			}
		}
		// Multiset buckets vs actual growths, and msMax vs true max.
		wantBucket := make(map[int]int)
		trueMax := math.MinInt
		for k := range sd.lines {
			for c := range sd.cur[k] {
				g := sd.cur[k][c] - sd.initial[k][c]
				wantBucket[g]++
				if g > trueMax {
					trueMax = g
				}
			}
		}
		for g, n := range wantBucket {
			if got := int(sd.bucket[g+sd.off]); got != n {
				t.Fatalf("step %d side %v: bucket[%d] = %d, want %d", step, side, g, got, n)
			}
		}
		total := 0
		for _, n := range sd.bucket {
			total += int(n)
		}
		wantTotal := 0
		for _, n := range wantBucket {
			wantTotal += n
		}
		if total != wantTotal {
			t.Fatalf("step %d side %v: multiset holds %d sections, want %d", step, side, total, wantTotal)
		}
		if trueMax != math.MinInt && sd.msMax != trueMax {
			t.Fatalf("step %d side %v: msMax = %d, true max growth = %d", step, side, sd.msMax, trueMax)
		}
		// idCache must equal the from-scratch Eq 2 value.
		if got, want := st.idCache[side], sd.id(order); got != want {
			t.Fatalf("step %d side %v: idCache = %d, sectionData.id = %d", step, side, got, want)
		}
	}
}

// TestSectionsIncrementalMatchesScratch drives 10k random legal adjacent
// swaps through price + commit — a third of them immediately reversed by
// pricing and committing the same swap again — and verifies that the
// incremental per-line section counts, worst-growth multiset and idCache
// exactly equal from-scratch sectionData.id throughout. Run under -race in
// CI.
func TestSectionsIncrementalMatchesScratch(t *testing.T) {
	configs := []struct {
		name    string
		circuit int
		tiers   int
		opt     Options
	}{
		{"alllines_t1", 1, 1, Options{}},
		{"alllines_t4", 2, 4, Options{}},
		{"topline", 2, 4, Options{TopLineOnly: true}},
		{"norange_dd", 0, 1, Options{DisableRangeConstraint: true}},
	}
	for _, cfg := range configs {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			st := newTestState(t, cfg.circuit, 2, cfg.tiers, cfg.opt)
			rng := rand.New(rand.NewSource(13))
			checked := 0
			for k := 0; k < 10000; k++ {
				side := st.sides[rng.Intn(len(st.sides))]
				i := 1 + rng.Intn(len(st.a.Slots[side])-1)
				j := i + 1
				sd := &st.sections[side]
				sameLine := sd.row[st.a.Slots[side][i-1]] == sd.row[st.a.Slots[side][j-1]]
				if sameLine && !cfg.opt.DisableRangeConstraint {
					continue // keep it legal, like the real move generator
				}
				st.price(side, i, j)
				st.CommitMove()
				if rng.Intn(3) == 0 {
					st.price(side, i, j) // the inverse swap
					st.CommitMove()
				}
				if k%500 == 0 {
					checkSections(t, st, k)
					checked++
				}
			}
			checkSections(t, st, 10000)
			if checked == 0 {
				t.Fatal("no intermediate checks ran")
			}
		})
	}
}

// statesEqual compares every piece of mutable state and cache of two
// annealing states bit for bit.
func statesEqual(t *testing.T, step int, a, b *state) {
	t.Helper()
	for _, side := range bga.Sides() {
		sa, sb := a.a.Slots[side], b.a.Slots[side]
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("step %d side %v slot %d: net %d vs %d", step, side, i+1, sa[i], sb[i])
			}
		}
		if a.idCache[side] != b.idCache[side] {
			t.Fatalf("step %d side %v: idCache %d vs %d", step, side, a.idCache[side], b.idCache[side])
		}
	}
	if math.Float64bits(a.cur) != math.Float64bits(b.cur) {
		t.Fatalf("step %d: cost bits %#016x vs %#016x", step, math.Float64bits(a.cur), math.Float64bits(b.cur))
	}
	if math.Float64bits(a.trk.proxy) != math.Float64bits(b.trk.proxy) {
		t.Fatalf("step %d: proxy bits %#016x vs %#016x", step,
			math.Float64bits(a.trk.proxy), math.Float64bits(b.trk.proxy))
	}
	if a.trk.applies != b.trk.applies {
		t.Fatalf("step %d: applies %d vs %d", step, a.trk.applies, b.trk.applies)
	}
	if a.trk.omega != b.trk.omega {
		t.Fatalf("step %d: omega %d vs %d", step, a.trk.omega, b.trk.omega)
	}
	for r := range a.trk.supplyIdx {
		if a.trk.supplyIdx[r] != b.trk.supplyIdx[r] {
			t.Fatalf("step %d: supplyIdx[%d] %d vs %d", step, r, a.trk.supplyIdx[r], b.trk.supplyIdx[r])
		}
	}
	for g := range a.trk.rankOf {
		if a.trk.rankOf[g] != b.trk.rankOf[g] {
			t.Fatalf("step %d: rankOf[%d] %d vs %d", step, g, a.trk.rankOf[g], b.trk.rankOf[g])
		}
	}
	for g := range a.trk.tiers {
		if a.trk.tiers[g] != b.trk.tiers[g] {
			t.Fatalf("step %d: tiers[%d] %d vs %d", step, g, a.trk.tiers[g], b.trk.tiers[g])
		}
	}
}

// TestRejectedMovesAreInvisible drives twin states through the same
// committed moves; between commits the second twin also prices and rejects
// extra moves drawn from a separate rng. A rejection must leave no trace,
// so after every step the twins must agree bit for bit — slots, idCache,
// cost and proxy bits, applies counter, omega, supply ranks and tiers —
// including across a resyncInterval boundary.
func TestRejectedMovesAreInvisible(t *testing.T) {
	for _, tiers := range []int{1, 4} {
		plain := newTestState(t, 2, 1, tiers, Options{})
		noisy := newTestState(t, 2, 1, tiers, Options{})
		rng1 := anneal.NewRand(17)
		rng2 := anneal.NewRand(17)
		extra := anneal.NewRand(99) // the rejected moves
		rejected := 0
		for k := 0; plain.trk.applies <= resyncInterval+64; k++ {
			if k > 100*resyncInterval {
				t.Fatalf("tiers=%d: %d supply moves after %d steps; resync boundary never reached",
					tiers, plain.trk.applies, k)
			}
			for r := extra.Intn(3); r > 0; r-- {
				if _, ok := noisy.PriceMove(extra); ok {
					noisy.RejectMove()
					rejected++
					statesEqual(t, k, plain, noisy)
				}
			}
			d1, ok1 := plain.PriceMove(rng1)
			d2, ok2 := noisy.PriceMove(rng2)
			if ok1 != ok2 {
				t.Fatalf("tiers=%d step %d: ok %v vs %v", tiers, k, ok1, ok2)
			}
			if !ok1 {
				continue
			}
			if math.Float64bits(d1) != math.Float64bits(d2) {
				t.Fatalf("tiers=%d step %d: delta bits %#016x vs %#016x",
					tiers, k, math.Float64bits(d1), math.Float64bits(d2))
			}
			plain.CommitMove()
			noisy.CommitMove()
			statesEqual(t, k, plain, noisy)
		}
		if rejected == 0 {
			t.Fatalf("tiers=%d: no move was rejected", tiers)
		}
	}
}

// skewedProblem builds a 100-net design whose quadrants hold 32, 32, 32
// and 4 nets, built the way gen.Build builds a Table 1 circuit (a
// trapezoid of ball lines with one spare site each, a seeded net-to-ball
// permutation, every 5th net power and every 7th ground). The left
// quadrant's four nets are declared last, so its net IDs reach 99 while it
// holds only four of them: the most skewed ID span a quadrant can have.
func skewedProblem(t *testing.T) *core.Problem {
	t.Helper()
	c := netlist.New("skewed")
	for i := 0; i < 100; i++ {
		class := netlist.Signal
		switch {
		case i%5 == 0:
			class = netlist.Power
		case i%7 == 0:
			class = netlist.Ground
		}
		c.MustAddNet(netlist.Net{Name: fmt.Sprintf("N%d", i), Class: class, Tier: 1})
	}
	rng := rand.New(rand.NewSource(1))
	var quads [bga.NumSides]*bga.Quadrant
	base := 0
	for _, side := range bga.Sides() {
		widths := []int{5, 7, 9, 11} // top line first, 32 nets
		if side == bga.Left {
			widths = []int{1, 1, 1, 1}
		}
		n := 0
		for _, w := range widths {
			n += w
		}
		perm := rng.Perm(n)
		rows := make([]bga.Row, len(widths))
		for r, w := range widths {
			rows[r].Nets = make([]netlist.ID, w+1)
			for x := 0; x < w; x++ {
				rows[r].Nets[x] = netlist.ID(base + perm[0])
				perm = perm[1:]
			}
			rows[r].Nets[w] = bga.NoNet
		}
		q, err := bga.NewQuadrant(side, rows)
		if err != nil {
			t.Fatal(err)
		}
		quads[side] = q
		base += n
	}
	tc := gen.Table1()[0]
	pkg, err := bga.NewPackage(bga.Spec{Name: "skewed", BallDiameter: 0.2, BallSpace: tc.BallSpace,
		ViaDiameter: 0.1, FingerWidth: tc.FingerW, FingerHeight: tc.FingerH, FingerSpace: tc.FingerSpace,
		Rows: 4}, quads)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProblem(c, pkg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestSkewedQuadrantGolden pins the exchange on skewedProblem bit for bit.
// The values were recorded when a quadrant whose ID span exceeded four
// times its net count plus 64 still kept its section caches in maps; the
// dense per-net slices must anneal the same design identically.
func TestSkewedQuadrantGolden(t *testing.T) {
	p := skewedProblem(t)
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, a, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := math.Float64bits(res.RestartCosts[0]), uint64(0x3ffe0ed1de0ed1de); got != want {
		t.Errorf("RestartCosts[0] = %#016x, want %#016x", got, want)
	}
	if got, want := res.Stats.Proposed, 39427; got != want {
		t.Errorf("proposed moves = %d, want %d", got, want)
	}
}
