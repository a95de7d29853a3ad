package exchange

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"copack/internal/bga"
	"copack/internal/core"
)

// This file implements anneal.Target for the exchange state: pick a pad
// per Fig 14 (any pad for stacking ICs, a supply pad for 2-D), swap it with
// a random neighbor, and price the swap in O(1) with zero allocations. A
// rejected move — the vast majority at low temperature — mutates nothing.

// pendMove is the move priced by the last PriceMove call, held in the
// state (not a closure) so resolving it allocates nothing. Pricing fills
// it in place, field by field, so no move struct is built and copied.
type pendMove struct {
	side   bga.Side
	i, j   int // 1-based slots, |i−j| = 1
	gi, gj int // global ring indices of i, j
	sec    secPend
	idAcc  int // idCache[side] after a commit
	sup    supplyPend
	omega  int // trk.omega after a commit
}

// PriceMove implements anneal.Target: it samples a move and prices it
// without mutating the state. CommitMove or RejectMove must resolve it
// before the next call.
func (s *state) PriceMove(rng *rand.Rand) (float64, bool) {
	side, i, ok := s.pickSlot(rng)
	if !ok {
		return 0, false
	}
	j := i + 1
	if (rng.Intn(2) == 0 && i > 1) || j > len(s.a.Slots[side]) {
		j = i - 1
	}
	slots := s.a.Slots[side]
	sd := &s.sections[side]
	if !s.opt.DisableRangeConstraint && sd.row(slots[i-1]) == sd.row(slots[j-1]) {
		// Same horizontal line: swapping would invert the via order
		// (range constraint).
		return 0, false
	}
	return s.price(side, i, j), true
}

// price returns the cost delta of swapping the adjacent slots i and j
// (1-based, |i−j| = 1) of one side, computed in O(1) without mutating the
// state, and holds the swap as the pending move for CommitMove.
func (s *state) price(side bga.Side, i, j int) float64 {
	slots := s.a.Slots[side]
	pm := &s.pend
	pm.side, pm.i, pm.j = side, i, j

	// Eq 2: the swap perturbs at most two sections of one line.
	lo := min(i, j)
	s.sections[side].priceSwap(slots[lo-1], slots[lo], &pm.sec)
	pm.idAcc = s.idCache[side]
	if pm.sec.kind == secDC {
		pm.idAcc = max(pm.sec.newMax, 0)
	}

	// Δ_IR proxy: at most one supply pad moves by one ring slot.
	gi, gj := s.trk.globalOf(side, i), s.trk.globalOf(side, j)
	pm.gi, pm.gj = gi, gj
	supA, supB := s.trk.isSupply(gi), s.trk.isSupply(gj)
	switch {
	case supB && !supA:
		s.trk.priceSupplyMove(gj, gi, &pm.sup)
	case supA && !supB:
		s.trk.priceSupplyMove(gi, gj, &pm.sup)
	default:
		pm.sup.moved = false
	}
	proxyAcc := s.trk.proxy
	if pm.sup.moved {
		proxyAcc = pm.sup.proxy
	}

	// ω: at most two tier groups change.
	pm.omega = s.trk.priceTierSwap(gi, gj)

	return s.costWith(side, pm.idAcc, proxyAcc, pm.omega) - s.cur
}

// CommitMove applies the last priced move to the state and every cache,
// then refreshes the current cost. It calls cost() rather than reusing the
// priced after-cost because the commit may resync the proxy.
func (s *state) CommitMove() {
	p := &s.pend
	s.sections[p.side].commitSwap(&p.sec)
	s.idCache[p.side] = p.idAcc
	s.a.Swap(p.side, p.i, p.j)
	s.trk.commitSupply(&p.sup)
	s.trk.commitTierSwap(p.gi, p.gj, p.omega)
	s.cur = s.cost()
}

// RejectMove abandons the last priced move. Pricing mutated nothing, so
// there is nothing to undo.
func (s *state) RejectMove() {}

// costWith is cost() with one side's Eq 2 term, the proxy and ω replaced
// by priced values — the identical arithmetic, so a priced after-cost is
// bit-equal to what cost() would return after a commit.
func (s *state) costWith(side bga.Side, idSide int, proxy float64, omega int) float64 {
	idWorst := 0
	for k, v := range s.idCache {
		if bga.Side(k) == side {
			v = idSide
		}
		if v > idWorst {
			idWorst = v
		}
	}
	c := s.lambda*proxy/s.proxy0 + s.rho*float64(idWorst)
	if s.p.Tiers > 1 {
		c += s.phi * float64(omega) / s.omega0
	}
	return c
}

// PricingStats reports what a PricingBench run measured.
type PricingStats struct {
	// Priced and Infeasible partition the proposals: Priced moves were
	// evaluated (and committed when improving), Infeasible ones were
	// rejected before evaluation (range constraint or no movable pad).
	Priced     int
	Infeasible int
	// NsPerMove and AllocsPerMove are averaged over every proposal;
	// BytesPerMove is the matching heap-byte rate. A healthy hot loop
	// reports AllocsPerMove == 0 (asserted in CI).
	NsPerMove     float64
	AllocsPerMove float64
	BytesPerMove  float64
}

// PricingBench drives the O(1) move-pricing hot loop directly — no
// annealer, no temperature: it builds one annealing state, prices `moves`
// adjacent-swap proposals with a deterministic rng, commits the improving
// ones and rejects the rest, and reports per-move time and allocation
// rates. It exists so benchmarks (bench_test.go, fpbench -bench) and the
// CI allocation regression test measure the exact production code path.
func PricingBench(p *core.Problem, initial *core.Assignment, opt Options, moves int) (PricingStats, error) {
	if err := core.CheckMonotonic(p, initial); err != nil {
		return PricingStats{}, fmt.Errorf("exchange: initial assignment: %v", err)
	}
	if moves < 1 {
		return PricingStats{}, fmt.Errorf("exchange: PricingBench needs at least 1 move, got %d", moves)
	}
	opt = opt.withDefaults(p)
	st := newState(p, initial, opt, nil)
	rng := rand.New(rand.NewSource(opt.Seed))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var ps PricingStats
	for k := 0; k < moves; k++ {
		delta, ok := st.PriceMove(rng)
		if !ok {
			ps.Infeasible++
			continue
		}
		ps.Priced++
		if delta <= 0 {
			st.CommitMove()
		} else {
			st.RejectMove()
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	ps.NsPerMove = float64(elapsed.Nanoseconds()) / float64(moves)
	ps.AllocsPerMove = float64(after.Mallocs-before.Mallocs) / float64(moves)
	ps.BytesPerMove = float64(after.TotalAlloc-before.TotalAlloc) / float64(moves)
	return ps, nil
}
