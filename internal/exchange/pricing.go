package exchange

import (
	"fmt"
	"math"
	"math/bits"

	"copack/internal/anneal"
	"copack/internal/bga"
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
	omega  int     // trk.omega after a commit
	cost   float64 // the state's cost after a commit
}

// PriceMove implements anneal.Target: it samples a move and prices it
// without mutating the state. CommitMove or RejectMove must resolve it
// before the next call.
func (s *state) PriceMove(rng *anneal.Rand) (float64, bool) {
	side, i, ok := s.pickSlot(rng)
	if !ok {
		return 0, false
	}
	j := i + 1
	// The partner's direction is rng.Intn(2)'s one masked Int31 draw.
	if (rng.Int31()&1 == 0 && i > 1) || j > len(s.a.Slots[side]) {
		j = i - 1
	}
	if rows := s.rows[side]; !s.opt.DisableRangeConstraint && rows[i-1] == rows[j-1] {
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
	lo, rows := min(i, j), s.rows[side]
	s.sections[side].priceSwap(slots[lo-1], slots[lo], rows[lo-1], rows[lo], &pm.sec)
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

	pm.cost = s.costWith(side, pm.idAcc, proxyAcc, pm.omega)
	return pm.cost - s.cur
}

// CommitMove applies the last priced move to the state and every cache,
// then takes the priced after-cost as the current cost. costWith is cost()'s
// arithmetic on the committed values, so the two are bit-equal, except when
// the commit resynced the proxy: then cost() is recomputed.
func (s *state) CommitMove() {
	p := &s.pend
	s.sections[p.side].commitSwap(&p.sec)
	if s.idCache[p.side] != p.idAcc {
		s.idCache[p.side] = p.idAcc
		s.setIDOther()
	}
	s.a.Swap(p.side, p.i, p.j)
	rows := s.rows[p.side]
	rows[p.i-1], rows[p.j-1] = rows[p.j-1], rows[p.i-1]
	resynced := s.trk.commitSupply(&p.sup)
	s.trk.commitTierSwap(p.gi, p.gj, p.omega)
	s.cur = p.cost
	if resynced {
		s.cur = s.cost()
	}
}

// RejectMove abandons the last priced move. Pricing mutated nothing, so
// there is nothing to undo.
func (s *state) RejectMove() {}

// costWith is cost() with one side's Eq 2 term, the proxy and ω replaced
// by priced values — the identical arithmetic, so a priced after-cost is
// bit-equal to what cost() would return after a commit. The worst Eq 2 ID
// is an integer maximum, so taking it from idOther changes no bit.
func (s *state) costWith(side bga.Side, idSide int, proxy float64, omega int) float64 {
	idWorst := max(s.idOther[side], idSide)
	c := s.lambda*proxy/s.proxy0 + s.rho*float64(idWorst)
	if s.p.Tiers > 1 {
		c += s.phi * float64(omega) / s.omega0
	}
	return c
}

// fixedIntn draws uniformly from [0, n) for one n fixed in advance. It makes
// exactly the Int31 draws rand.Rand.Intn(n) makes, so it returns the same
// values and leaves the source at the same stream position, but works out
// the power-of-two test, the rejection bound and a reciprocal for the final
// remainder once instead of dividing per draw.
type fixedIntn struct {
	mask int32 // n−1 when n is a power of two (Intn masks), else −1
	max  int32 // the largest Int31 draw Intn accepts when it does not mask
	n, m uint64
}

// newFixedIntn returns the sampler for n, which must lie in [1, 2³¹−1],
// where rand.Rand.Intn(n) draws through Int31n.
func newFixedIntn(n int) fixedIntn {
	if n < 1 || n > math.MaxInt32 {
		panic(fmt.Sprintf("exchange: sampler size %d outside [1, 2^31-1]", n))
	}
	s := fixedIntn{mask: -1, n: uint64(n), m: math.MaxUint64/uint64(n) + 1}
	if n&(n-1) == 0 {
		s.mask = int32(n - 1)
	} else {
		s.max = int32((1 << 31) - 1 - (1<<31)%uint32(n))
	}
	return s
}

// draw returns what rng.Intn(n) would.
func (s fixedIntn) draw(rng *anneal.Rand) int {
	if s.mask >= 0 {
		return int(rng.Int31() & s.mask)
	}
	v := rng.Int31()
	for v > s.max {
		v = rng.Int31()
	}
	return s.rem(v)
}

// rem returns v mod n without dividing: with m = ⌈2⁶⁴/n⌉, the high word of
// (m·v mod 2⁶⁴)·n is the remainder for every 32-bit v and n (Lemire, Kaser
// and Kurz, "Faster remainder by direct computation", 2019).
func (s fixedIntn) rem(v int32) int {
	hi, _ := bits.Mul64(s.m*uint64(v), s.n)
	return int(hi)
}
