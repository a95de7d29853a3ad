package exchange

import (
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
)

// This file maintains the paper's Eq 2 increased-density term under local
// perturbation. The annealer only ever swaps two adjacent fingers, and an
// adjacent swap of nets on lines r_a ≠ r_b perturbs exactly one watched
// line — the higher of the two — and on it exactly two neighboring
// sections. Every other (line, role) combination is a no-op:
//
//	roles on line y      effect of swapping the adjacent pair
//	─────────────────    ─────────────────────────────────────
//	D↔D (both on y)      adjacent delimiters trade ordinals; the section
//	                     between them is empty, counts unchanged
//	C↔C, S↔S             counts unchanged
//	C↔S, D↔S             the skipped net crosses nothing, unchanged
//	D↔C (y = max(r_a,r_b), the counted net crosses delimiter m: one wire
//	     other below)    leaves section m and enters m−1 (or vice versa)
//
// so the whole Eq 2 update is two ±1 edits. The worst growth over all
// watched sections — the quantity Eq 2 actually scores — is kept by a
// count-of-counts multiset over the growth (current − initial) of every
// section: a ±1 edit moves one multiset element by one, so the maximum
// shifts by at most one step and updates in O(1) with no rescan.

// sectionData caches, for one quadrant, the Eq 2 bookkeeping. The paper
// records the sections of the highest horizontal line only, arguing its
// density dominates; with the heavier movement of stacking-IC exchanges the
// congestion can migrate to lower lines unseen, so by default we track the
// sections of every line (the TopLineOnly option restores the paper's exact
// Eq 2 — the ablation bench shows the difference).
type sectionData struct {
	// rowDense[id] is the ball line of net id, 0 when the net is not in
	// this quadrant. Net IDs are dense in practice, so a slice replaces
	// the old per-lookup map; rowSparse is the fallback guard for designs
	// whose IDs are too sparse to index densely.
	rowDense  []int32
	rowSparse map[netlist.ID]int

	// lines lists the line indices being watched (highest first);
	// lineIdx[y] is y's index in lines, -1 for unwatched lines.
	lines   []int
	lineIdx []int
	// initial[k] is the section-count vector of lines[k] at the initial
	// assignment; cur[k] is the live vector, maintained incrementally so
	// that cur[k] equals counts(order, lines[k]) at all times.
	initial [][]int
	cur     [][]int

	// delimOrd[id] is the 1-based ordinal of net id among its watched
	// line's delimiters in the current finger order (0 for nets that
	// delimit no watched line); delimSparse is the sparse-ID fallback.
	delimOrd    []int32
	delimSparse map[netlist.ID]int

	// Count-of-counts multiset over the growth (cur − initial) of every
	// watched section: bucket[g+off] is the number of sections currently
	// grown by g, and msMax is the largest growth present.
	bucket []int32
	off    int
	msMax  int
}

func newSectionData(p *core.Problem, side bga.Side, order []netlist.ID, topOnly bool) sectionData {
	q := p.Pkg.Quadrant(side)
	sd := sectionData{}
	maxID, nets := netlist.ID(-1), 0
	for y := 1; y <= q.NumRows(); y++ {
		for _, id := range q.Row(y).Nets {
			if id == bga.NoNet {
				continue
			}
			nets++
			if id > maxID {
				maxID = id
			}
		}
	}
	if span := int(maxID) + 1; span <= 4*nets+64 {
		sd.rowDense = make([]int32, span)
		sd.delimOrd = make([]int32, span)
	} else {
		sd.rowSparse = make(map[netlist.ID]int, nets)
		sd.delimSparse = make(map[netlist.ID]int, nets)
	}
	for y := 1; y <= q.NumRows(); y++ {
		for _, id := range q.Row(y).Nets {
			if id != bga.NoNet {
				sd.setRow(id, y)
			}
		}
	}
	// Line 1 never carries passing wires, so watching it is pointless.
	sd.lineIdx = make([]int, q.NumRows()+1)
	for i := range sd.lineIdx {
		sd.lineIdx[i] = -1
	}
	for y := q.NumRows(); y >= 2; y-- {
		sd.lineIdx[y] = len(sd.lines)
		sd.lines = append(sd.lines, y)
		if topOnly {
			break
		}
	}
	sections := 0
	for _, y := range sd.lines {
		c := sd.counts(order, y)
		sd.initial = append(sd.initial, c)
		cp := make([]int, len(c))
		copy(cp, c)
		sd.cur = append(sd.cur, cp)
		sections += len(c)
	}
	// Delimiter ordinals, in one walk of the order.
	seen := make([]int, q.NumRows()+1)
	for _, id := range order {
		if y := sd.row(id); y > 0 && sd.lineIdx[y] >= 0 {
			seen[y]++
			sd.setOrd(id, seen[y])
		}
	}
	// Every section starts at its initial count, so every growth is 0. A
	// growth can range over [-len(order), len(order)]; off centers it.
	sd.off = len(order) + 1
	sd.bucket = make([]int32, 2*len(order)+3)
	sd.bucket[sd.off] = int32(sections)
	sd.msMax = 0
	return sd
}

// reanchor repoints the live caches at a different current order while
// keeping the Eq 2 growth baseline: cur, the delimiter ordinals and the
// growth multiset are recomputed for order, initial stays untouched. This
// is the warm-start hook's primitive — a state can start annealing from one
// order while its ID term (and hence its Eq 3 cost) stays measured against
// the baseline the sectionData was built from. A reanchor to the baseline
// order itself is a no-op.
func (sd *sectionData) reanchor(order []netlist.ID) {
	for i := range sd.bucket {
		sd.bucket[i] = 0
	}
	max := 0 // per line Σcur = Σinitial (the passing-wire set is order-independent), so the max growth is ≥ 0 whenever sections exist
	for k, y := range sd.lines {
		c := sd.counts(order, y)
		copy(sd.cur[k], c)
		for i := range c {
			g := c[i] - sd.initial[k][i]
			sd.bucket[g+sd.off]++
			if g > max {
				max = g
			}
		}
	}
	sd.msMax = max
	seen := make([]int, len(sd.lineIdx))
	for _, id := range order {
		if y := sd.row(id); y > 0 && sd.lineIdx[y] >= 0 {
			seen[y]++
			sd.setOrd(id, seen[y])
		}
	}
}

// row returns the ball line of a net (0 if absent from the quadrant).
func (sd *sectionData) row(id netlist.ID) int {
	if sd.rowSparse != nil {
		return sd.rowSparse[id]
	}
	if id >= 0 && int(id) < len(sd.rowDense) {
		return int(sd.rowDense[id])
	}
	return 0
}

func (sd *sectionData) setRow(id netlist.ID, y int) {
	if sd.rowSparse != nil {
		sd.rowSparse[id] = y
		return
	}
	sd.rowDense[id] = int32(y)
}

// ord returns the 1-based delimiter ordinal of a watched-line net.
func (sd *sectionData) ord(id netlist.ID) int {
	if sd.delimSparse != nil {
		return sd.delimSparse[id]
	}
	return int(sd.delimOrd[id])
}

func (sd *sectionData) setOrd(id netlist.ID, m int) {
	if sd.delimSparse != nil {
		sd.delimSparse[id] = m
		return
	}
	sd.delimOrd[id] = int32(m)
}

// counts returns, for one line, the number of wires crossing each of its
// sections: nets on the line delimit the sections, nets on lower lines are
// counted, and nets on higher lines (which never cross) are skipped. This
// is the from-scratch reference; the hot loop maintains cur incrementally.
func (sd *sectionData) counts(order []netlist.ID, y int) []int {
	counts := make([]int, 1, 8)
	for _, id := range order {
		switch r := sd.row(id); {
		case r == y:
			counts = append(counts, 0)
		case r < y:
			counts[len(counts)-1]++
		}
	}
	return counts
}

// id returns Eq 2's increased density for the quadrant's given order from
// scratch: the worst growth of any watched section versus the initial
// assignment. Reporting and restart selection go through this; the anneal
// hot loop uses worst().
func (sd *sectionData) id(order []netlist.ID) int {
	worst := 0
	for k, y := range sd.lines {
		cur := sd.counts(order, y)
		for c := range cur {
			if d := cur[c] - sd.initial[k][c]; d > worst {
				worst = d
			}
		}
	}
	return worst
}

// worst is id() for the current order, read from the incremental caches in
// O(1). Like id(), growth below zero scores 0.
func (sd *sectionData) worst() int {
	if sd.msMax > 0 {
		return sd.msMax
	}
	return 0
}

type secKind int8

const (
	secNone secKind = iota // no watched section changes
	secDD                  // two same-line delimiters trade ordinals
	secDC                  // a counted net crosses a delimiter
)

// secPend is the priced effect of one adjacent swap on the watched
// sections: priceSwap fills it without mutating, commitSwap applies it.
type secPend struct {
	kind     secKind
	line     int        // lines index of the perturbed line (secDC)
	dec, inc int        // sections losing / gaining the crossing wire (secDC)
	newMax   int        // msMax after commit (secDC)
	na, nb   netlist.ID // delimiters exchanging ordinals (secDD)
}

// priceSwap prices the swap of the adjacent nets na (earlier finger slot)
// and nb (the next slot) against the watched sections into sp, in place.
// It sets the fields commitSwap reads for sp.kind and leaves the rest
// stale. O(1), no other mutation.
func (sd *sectionData) priceSwap(na, nb netlist.ID, sp *secPend) {
	ra, rb := sd.row(na), sd.row(nb)
	if ra == rb {
		// Same line: both delimit, the section between two adjacent
		// delimiters is empty, so only their ordinals trade places.
		sp.kind = secNone
		if sd.lineIdx[ra] >= 0 {
			sp.kind, sp.na, sp.nb = secDD, na, nb
		}
		return
	}
	// Only the higher line is perturbed: there the higher net delimits
	// and the lower net is counted; on every other line the pair is
	// C↔C, S↔S, C↔S or D↔S — all no-ops (see the file comment).
	hi, dNet, dFirst := ra, na, true
	if rb > ra {
		hi, dNet, dFirst = rb, nb, false
	}
	k := sd.lineIdx[hi]
	if k < 0 {
		sp.kind = secNone // unwatched (TopLineOnly)
		return
	}
	m := sd.ord(dNet)
	var dec, inc int
	if dFirst {
		// Delimiter m then counted net: the wire crosses left,
		// leaving section m for section m−1.
		dec, inc = m, m-1
	} else {
		// Counted net then delimiter m: the wire crosses right.
		dec, inc = m-1, m
	}
	// The multiset maximum after moving one element down by one and one
	// up by one: each element moves a single step, so the max moves at
	// most one step — no rescan.
	gDec := sd.cur[k][dec] - sd.initial[k][dec]
	gInc := sd.cur[k][inc] - sd.initial[k][inc]
	newMax := sd.msMax
	if gDec == newMax && sd.bucket[gDec+sd.off] == 1 {
		// The shrinking section was the sole worst one; it now sits at
		// newMax−1, which everything else already is at or below.
		newMax--
	}
	if gInc+1 > newMax {
		newMax = gInc + 1
	}
	sp.kind, sp.line, sp.dec, sp.inc, sp.newMax = secDC, k, dec, inc, newMax
}

// commitSwap applies a priced swap to the incremental caches.
func (sd *sectionData) commitSwap(p *secPend) {
	switch p.kind {
	case secDC:
		k := p.line
		gDec := sd.cur[k][p.dec] - sd.initial[k][p.dec]
		gInc := sd.cur[k][p.inc] - sd.initial[k][p.inc]
		sd.cur[k][p.dec]--
		sd.cur[k][p.inc]++
		sd.bucket[gDec+sd.off]--
		sd.bucket[gDec-1+sd.off]++
		sd.bucket[gInc+sd.off]--
		sd.bucket[gInc+1+sd.off]++
		sd.msMax = p.newMax
	case secDD:
		ma, mb := sd.ord(p.na), sd.ord(p.nb)
		sd.setOrd(p.na, mb)
		sd.setOrd(p.nb, ma)
	}
}
