package exchange

import (
	"math/bits"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
	"copack/internal/power"
	"copack/internal/stack"
)

// The annealer prices ~10⁵ moves per run, and pricing a move with full
// recomputation of the pad-gap proxy (O(s log s)) and of ω (O(α)) would
// dominate the runtime. This file maintains both incrementally: an adjacent
// swap moves at most one supply pad by one ring slot (its rank among supply
// pads cannot change) and touches at most two ω groups, so each is an O(1)
// update. A move is priced without mutating anything (priceSupplyMove,
// priceTierSwap) and written to the caches only when committed
// (commitSupply, commitTierSwap), so a rejected move leaves no trace.
// Floating-point drift from the proxy deltas is bounded by resyncing the
// cache from scratch on every resyncInterval-th committed supply move.

const resyncInterval = 4096

// tracker holds the incremental caches of one annealing state.
type tracker struct {
	// start[side] is the global index of the side's first slot: slots
	// are numbered along the concatenated ring (bottom, right, top,
	// left), so globalOf maps a slot to its global index. sideOf[g] is
	// the side holding global index g, so locate maps it back without a
	// loop.
	start  [bga.NumSides]int
	sideOf []uint8
	// tGlobal[g] is the fixed perimeter position of global index g.
	tGlobal []float64

	// Supply bookkeeping: sorted global indices of power pads and the
	// rank of each (rankOf[g] is -1 for non-supply slots; a dense slice,
	// since global indices are dense by construction).
	supplyIdx []int
	rankOf    []int
	proxy     float64
	// tsBuf is the reusable scratch for from-scratch proxy recomputes,
	// so a resync inside the hot loop allocates nothing.
	tsBuf []float64

	// Tier bookkeeping (stacking only; psi <= 1 disables it). tiers
	// and group are by global index; group[g] is g's ω group, g/psi.
	psi   int
	tiers []int
	group []int32
	omega int

	// applies counts committed supply-pad moves.
	applies int
	// resyncs counts from-scratch proxy recomputations (every
	// resyncInterval applies, plus the explicit selection-time resync).
	// Telemetry only — it never feeds back into the run.
	resyncs int
}

// newTracker builds the caches from the current assignment; the power pads
// are the supply pads.
func newTracker(p *core.Problem, a *core.Assignment) *tracker {
	tr := &tracker{psi: p.Tiers}
	g := 0
	for _, side := range bga.Sides() {
		slots := a.Slots[side]
		n := len(slots)
		tr.start[side] = g
		for i, id := range slots {
			net := p.Circuit.Net(id)
			tr.tGlobal = append(tr.tGlobal, float64(side)+(float64(i+1)-0.5)/float64(n))
			tr.tiers = append(tr.tiers, net.Tier)
			tr.sideOf = append(tr.sideOf, uint8(side))
			if net.Class == netlist.Power {
				tr.supplyIdx = append(tr.supplyIdx, g)
			}
			g++
		}
	}
	tr.rankOf = make([]int, g)
	for i := range tr.rankOf {
		tr.rankOf[i] = -1
	}
	for r, gi := range tr.supplyIdx {
		tr.rankOf[gi] = r
	}
	tr.tsBuf = make([]float64, 0, len(tr.supplyIdx))
	tr.resyncProxy()
	if tr.psi > 1 {
		tr.omega = stack.Omega(tr.tiers, tr.psi)
		tr.group = make([]int32, len(tr.tiers))
		for g := range tr.group {
			tr.group[g] = int32(g / tr.psi)
		}
	}
	return tr
}

// globalOf returns the global ring index of 1-based slot i of a side.
func (tr *tracker) globalOf(side bga.Side, i int) int { return tr.start[side] + i - 1 }

// locate is globalOf's inverse: the side and 1-based slot of global index
// g.
func (tr *tracker) locate(g int) (bga.Side, int) {
	side := bga.Side(tr.sideOf[g])
	return side, g - tr.start[side] + 1
}

// isSupply reports whether global index g holds a power pad.
func (tr *tracker) isSupply(g int) bool { return tr.rankOf[g] >= 0 }

// resyncProxy recomputes the cached proxy from scratch, into the reusable
// scratch buffer so a resync inside the hot loop allocates nothing.
func (tr *tracker) resyncProxy() {
	tr.resyncs++
	ts := tr.tsBuf[:0]
	for _, gi := range tr.supplyIdx {
		ts = append(ts, tr.tGlobal[gi])
	}
	tr.tsBuf = ts
	// supplyIdx is sorted by global index and tGlobal is increasing in
	// global index, so ts is already sorted.
	tr.proxy = power.ProxyCost(ts)
}

// circGap returns the circular distance from a to b going forward.
func circGap(a, b float64) float64 {
	d := b - a
	if d < 0 {
		d += 4
	}
	return d
}

func sq(v float64) float64 { return v * v }

// supplyPend is a priced supply-pad move: the pad of the given rank moves
// from global index gFrom to gTo, and proxy is the cache value after the
// move is committed.
type supplyPend struct {
	moved      bool
	gFrom, gTo int
	rank       int
	proxy      float64
}

// priceSupplyMove prices the supply pad at global index gFrom moving to
// the adjacent index gTo in O(1), without mutating anything but sp, which
// it fills in place.
func (tr *tracker) priceSupplyMove(gFrom, gTo int, sp *supplyPend) {
	r := tr.rankOf[gFrom]
	if r < 0 {
		sp.moved = false
		return
	}
	sp.moved, sp.gFrom, sp.gTo, sp.rank, sp.proxy = true, gFrom, gTo, r, tr.proxy
	n := len(tr.supplyIdx)
	if n == 1 {
		// A single pad's cost is one full-circle gap regardless of
		// position.
		return
	}
	// An adjacent move cannot cross another supply pad, so only the two
	// gaps around the moving pad change. Its neighbours' ranks wrap
	// around the ring.
	rPrev, rNext := r-1, r+1
	if rPrev < 0 {
		rPrev = n - 1
	}
	if rNext == n {
		rNext = 0
	}
	prev, next := tr.supplyIdx[rPrev], tr.supplyIdx[rNext]
	tOld, tNew := tr.tGlobal[gFrom], tr.tGlobal[gTo]
	tPrev, tNext := tr.tGlobal[prev], tr.tGlobal[next]
	oldCost := sq(circGap(tPrev, tOld)) + sq(circGap(tOld, tNext))
	newCost := sq(circGap(tPrev, tNew)) + sq(circGap(tNew, tNext))
	sp.proxy += newCost - oldCost
}

// commitSupply applies a priced supply move to the caches, resyncing the
// proxy from scratch on every resyncInterval-th commit. It reports whether
// it resynced, so the proxy may differ from the priced one.
func (tr *tracker) commitSupply(sp *supplyPend) bool {
	if !sp.moved {
		return false
	}
	tr.supplyIdx[sp.rank] = sp.gTo
	tr.rankOf[sp.gFrom] = -1
	tr.rankOf[sp.gTo] = sp.rank
	tr.proxy = sp.proxy
	tr.applies++
	if tr.applies%resyncInterval == 0 {
		tr.resyncProxy()
		return true
	}
	return false
}

// groupOmega computes the zero-bit count of one ω group.
func (tr *tracker) groupOmega(group int) int {
	full := uint64(1)<<tr.psi - 1
	var union uint64
	start := group * tr.psi
	end := start + tr.psi
	if end > len(tr.tiers) {
		end = len(tr.tiers)
	}
	for _, d := range tr.tiers[start:end] {
		union |= 1 << (d - 1)
	}
	return bits.OnesCount64(full &^ union)
}

// groupOmegaSwapped is groupOmega with the tiers at global indices gi and
// gj read as if they were exchanged — the priced, mutation-free variant.
func (tr *tracker) groupOmegaSwapped(group, gi, gj int) int {
	full := uint64(1)<<tr.psi - 1
	var union uint64
	start := group * tr.psi
	end := start + tr.psi
	if end > len(tr.tiers) {
		end = len(tr.tiers)
	}
	for x := start; x < end; x++ {
		d := tr.tiers[x]
		if x == gi {
			d = tr.tiers[gj]
		} else if x == gj {
			d = tr.tiers[gi]
		}
		union |= 1 << (d - 1)
	}
	return bits.OnesCount64(full &^ union)
}

// priceTierSwap returns the ω value after swapping the adjacent global
// indices gi, gj, without mutating. Swapping two pads of one tier, or two
// pads within one group, cannot change any group's tier union, so only a
// boundary swap of two tiers does any work.
func (tr *tracker) priceTierSwap(gi, gj int) int {
	if tr.psi <= 1 || tr.tiers[gi] == tr.tiers[gj] {
		return tr.omega
	}
	ga, gb := int(tr.group[gi]), int(tr.group[gj])
	if ga == gb {
		return tr.omega
	}
	before := tr.groupOmega(ga) + tr.groupOmega(gb)
	after := tr.groupOmegaSwapped(ga, gi, gj) + tr.groupOmegaSwapped(gb, gi, gj)
	return tr.omega + (after - before)
}

// commitTierSwap applies a priced tier swap.
func (tr *tracker) commitTierSwap(gi, gj, omega int) {
	if tr.psi <= 1 {
		return
	}
	tr.tiers[gi], tr.tiers[gj] = tr.tiers[gj], tr.tiers[gi]
	tr.omega = omega
}
