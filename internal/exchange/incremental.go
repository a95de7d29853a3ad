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
	// ringT[side][slot-1] is the fixed perimeter position of a slot.
	ringT [bga.NumSides][]float64
	// globalOf[side][slot-1] is the slot's index in the concatenated
	// ring (bottom, right, top, left).
	globalOf [bga.NumSides][]int
	// tGlobal[g] is ringT by global index.
	tGlobal []float64

	// Supply bookkeeping: sorted global indices of watched pads and the
	// rank of each (rankOf[g] is -1 for non-supply slots; a dense slice,
	// since global indices are dense by construction).
	supplyIdx []int
	rankOf    []int
	proxy     float64
	// tsBuf is the reusable scratch for from-scratch proxy recomputes,
	// so a resync inside the hot loop allocates nothing.
	tsBuf []float64

	// Tier bookkeeping (stacking only; psi <= 1 disables it).
	psi    int
	tiers  []int // by global index
	omega  int
	groups int

	// applies counts committed supply-pad moves.
	applies int
	// resyncs counts from-scratch proxy recomputations (every
	// resyncInterval applies, plus the explicit selection-time resync).
	// Telemetry only — it never feeds back into the run.
	resyncs int
}

// newTracker builds the caches from the current assignment.
func newTracker(p *core.Problem, a *core.Assignment, isSupply *[bga.NumSides][]bool) *tracker {
	tr := &tracker{psi: p.Tiers}
	g := 0
	for _, side := range bga.Sides() {
		slots := a.Slots[side]
		n := len(slots)
		tr.ringT[side] = make([]float64, n)
		tr.globalOf[side] = make([]int, n)
		for i := range slots {
			t := float64(side) + (float64(i+1)-0.5)/float64(n)
			tr.ringT[side][i] = t
			tr.globalOf[side][i] = g
			tr.tGlobal = append(tr.tGlobal, t)
			tr.tiers = append(tr.tiers, p.Circuit.Net(slots[i]).Tier)
			if isSupply[side][i] {
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
		tr.groups = (len(tr.tiers) + tr.psi - 1) / tr.psi
		tr.omega = stack.Omega(tr.tiers, tr.psi)
	}
	return tr
}

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
// the adjacent index gTo in O(1), without mutating anything.
func (tr *tracker) priceSupplyMove(gFrom, gTo int) supplyPend {
	r := tr.rankOf[gFrom]
	if r < 0 {
		return supplyPend{}
	}
	sp := supplyPend{moved: true, gFrom: gFrom, gTo: gTo, rank: r, proxy: tr.proxy}
	n := len(tr.supplyIdx)
	if n == 1 {
		// A single pad's cost is one full-circle gap regardless of
		// position.
		return sp
	}
	// An adjacent move cannot cross another supply pad, so only the two
	// gaps around the moving pad change.
	prev := tr.supplyIdx[(r-1+n)%n]
	next := tr.supplyIdx[(r+1)%n]
	tOld, tNew := tr.tGlobal[gFrom], tr.tGlobal[gTo]
	tPrev, tNext := tr.tGlobal[prev], tr.tGlobal[next]
	oldCost := sq(circGap(tPrev, tOld)) + sq(circGap(tOld, tNext))
	newCost := sq(circGap(tPrev, tNew)) + sq(circGap(tNew, tNext))
	sp.proxy += newCost - oldCost
	return sp
}

// commitSupply applies a priced supply move to the caches, resyncing the
// proxy from scratch on every resyncInterval-th commit.
func (tr *tracker) commitSupply(sp supplyPend) {
	if !sp.moved {
		return
	}
	tr.supplyIdx[sp.rank] = sp.gTo
	tr.rankOf[sp.gFrom] = -1
	tr.rankOf[sp.gTo] = sp.rank
	tr.proxy = sp.proxy
	tr.applies++
	if tr.applies%resyncInterval == 0 {
		tr.resyncProxy()
	}
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
// indices gi, gj, without mutating. A within-group swap cannot change a
// group's tier union, so only boundary swaps do any work.
func (tr *tracker) priceTierSwap(gi, gj int) int {
	if tr.psi <= 1 {
		return tr.omega
	}
	ga, gb := gi/tr.psi, gj/tr.psi
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

// verify recomputes everything from scratch (test hook).
func (tr *tracker) verify(p *core.Problem, a *core.Assignment, classes []netlist.NetClass) (proxy float64, omega int) {
	return power.ProxyForAssignment(p, a, classes...), stack.OmegaAssignment(p, a)
}
