package exp

import (
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"copack/internal/bga"
	"copack/internal/exchange"
)

func TestCompareAssignShape(t *testing.T) {
	res, err := CompareAssign(1, 3, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("got %d rows, want 5", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.RandomDensity <= 0 || row.MCMFDensity <= 0 {
			t.Errorf("%s: non-positive densities %+v", row.Circuit, row)
		}
		if row.MCMFWirelen <= 0 {
			t.Errorf("%s: non-positive MCMF wirelength", row.Circuit)
		}
		// The engines must beat the sampled random baseline on density —
		// the paper's core Table 2 claim, which the MCMF column inherits.
		if row.MCMFDensity > row.RandomDensity {
			t.Errorf("%s: MCMF density %d worse than random %d",
				row.Circuit, row.MCMFDensity, row.RandomDensity)
		}
	}
	if res.AvgDensityMCMF <= 0 || res.AvgDensityMCMF > 1 {
		t.Errorf("MCMF avg density ratio %v, want in (0, 1]", res.AvgDensityMCMF)
	}
	out := res.Format()
	for _, want := range []string{"MCMF", "mcmfWL", "avg ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestCompareAssignDeterministicAcrossWorkers(t *testing.T) {
	seq, err := CompareAssign(2, 3, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := CompareAssign(2, 3, Harness{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Error("CompareAssign differs across worker counts")
	}
}

func TestRestartPolicyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("restart-policy table runs 180 annealers; skipped with -short")
	}
	res, err := RestartPolicy([]int64{1}, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("got %d rows, want 20 (5 circuits x 4 tier counts)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Cold.Moves <= 0 || row.Rule.Moves <= row.Cold.Moves {
			t.Errorf("%s ψ=%d: %v cold moves, %v over %d restarts", row.Circuit, row.Psi,
				row.Cold.Moves, row.Rule.Moves, PolicyRestarts)
		}
		if (row.Psi > 1) != (row.Cold.BondPct != 0) {
			t.Errorf("%s ψ=%d: bonding gain %v", row.Circuit, row.Psi, row.Cold.BondPct)
		}
	}
	if len(res.Means) != 4 {
		t.Fatalf("%d means, want one per ψ", len(res.Means))
	}
	for i, m := range res.Means {
		if m.Psi != i+1 || m.Cells != 5 {
			t.Errorf("mean %d: ψ=%d over %d cells", i, m.Psi, m.Cells)
		}
	}
	out := res.Format()
	for _, want := range []string{"eq3Rule", "mean"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	if _, err := RestartPolicy(nil, Harness{}); err == nil {
		t.Error("restart policy with no seeds accepted")
	}
}

// CompareAssign's random, IFA and DFA columns and their averages are
// Table 2's, bit for bit: table2Row computes both.
func TestCompareAssignSharesTable2(t *testing.T) {
	cmp, err := CompareAssign(2, 3, Harness{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t2, err := Table2(2, 3, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Rows) != len(t2.Rows) {
		t.Fatalf("%d compare rows, %d Table 2 rows", len(cmp.Rows), len(t2.Rows))
	}
	for i, row := range cmp.Rows {
		if row.Table2Row != t2.Rows[i] {
			t.Errorf("row %d: compare %+v, Table 2 %+v", i, row.Table2Row, t2.Rows[i])
		}
	}
	got := [4]float64{cmp.AvgDensityIFA, cmp.AvgDensityDFA, cmp.AvgWirelenIFA, cmp.AvgWirelenDFA}
	want := [4]float64{t2.AvgDensityIFA, t2.AvgDensityDFA, t2.AvgWirelenIFA, t2.AvgWirelenDFA}
	if got != want {
		t.Errorf("compare averages %v, Table 2 averages %v", got, want)
	}
}

// banditMeans are the retired restart bandit's results on the sweep below:
// its default five-arm set (successive halving over a budget of 8
// restarts) from the DFA order, averaged per ψ over the 50 cells, as the
// last commit that had the bandit computed them. The start rule replaced
// it on this evidence.
var banditMeans = []struct {
	psi                 int
	densityGrowth, cost float64
}{
	{1, 1.30, 2.240726},
	{2, 2.54, 7.776436},
	{3, 2.60, 7.828479},
	{4, 2.58, 7.849803},
}

// policyDigest is the FNV-64a digest (see foldRule) of the rule's 200
// cells in row order, computed at that same commit from Restarts: 8 at
// ψ = 1 and, at ψ ≥ 2, from the bandit's one warm arm alone (auto engine,
// move scale 0.5, entry temperature 0.05) at a budget of 8.
const policyDigest uint64 = 0xba5b075270f2fe71

// foldRule folds one rule run into h: its winning order quadrant by
// quadrant, the winning restart's index and every restart's cost bits.
func foldRule(h hash.Hash64, res *exchange.Result) {
	for _, side := range bga.Sides() {
		for _, id := range res.Assignment.Slots[side] {
			fmt.Fprintf(h, "%d,", id)
		}
		fmt.Fprint(h, ";")
	}
	fmt.Fprintf(h, "w%d:", res.Restart)
	for _, c := range res.RestartCosts {
		fmt.Fprintf(h, "%016x,", math.Float64bits(c))
	}
	fmt.Fprint(h, "|")
}

// TestRestartPolicySweep is the restart policy's evidence and gate: the
// table over circuits 1–5 × seeds 1–10 × ψ = 1…4. The start rule at
// Restarts: 8 must reproduce, bit for bit, what the bandit's own cold
// restarts (ψ = 1) and warm-auto arm (ψ ≥ 2) produced, and per ψ it must
// end at a mean Eq 3 no higher than the bandit's, with a mean density
// growth within 0.05 of it. About 13 s on 2 vCPUs.
func TestRestartPolicySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("restart-policy sweep runs 1800 annealers; skipped with -short")
	}
	if raceEnabled {
		t.Skip("restart-policy sweep takes minutes under -race; CI runs it without")
	}
	var seeds []int64
	for s := int64(1); s <= 10; s++ {
		seeds = append(seeds, s)
	}
	cells, err := policyCells(seeds, Harness{})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	rows := make([]PolicyRow, len(cells))
	for i, c := range cells {
		foldRule(h, c.rule)
		rows[i] = c.row
	}
	if got := h.Sum64(); got != policyDigest {
		t.Errorf("rule digest %#016x, want %#016x", got, policyDigest)
	}
	res := newPolicyResult(rows)
	if len(res.Means) != len(banditMeans) {
		t.Fatalf("%d means, want %d", len(res.Means), len(banditMeans))
	}
	for i, m := range res.Means {
		b := banditMeans[i]
		if m.Psi != b.psi || m.Cells != 50 {
			t.Fatalf("mean %d: ψ=%d over %d cells, want ψ=%d over 50", i, m.Psi, m.Cells, b.psi)
		}
		if m.Rule.Cost > b.cost {
			t.Errorf("ψ=%d: rule mean Eq 3 %.6f above the bandit's %.6f", m.Psi, m.Rule.Cost, b.cost)
		}
		if d := m.Rule.DensityGrowth - b.densityGrowth; math.Abs(d) > 0.05 {
			t.Errorf("ψ=%d: rule mean density growth %.2f, the bandit's %.2f", m.Psi, m.Rule.DensityGrowth, b.densityGrowth)
		}
	}
	t.Logf("per-ψ means:\n%s", (&PolicyResult{Means: res.Means}).Format())
}

// The restart-policy table's cold pull is Table 3's exchange: at ψ = 1 and
// 4 its density growth, IR improvement and bonding gain equal Table 3's
// row for row.
func TestRestartPolicyColdIsTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("restart-policy table runs 180 annealers; skipped with -short")
	}
	pol, err := RestartPolicy([]int64{1}, Harness{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(1, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rows []PolicyRow
	for _, row := range pol.Rows {
		if row.Psi == 1 || row.Psi == 4 {
			rows = append(rows, row)
		}
	}
	if len(rows) != len(t3.Rows) {
		t.Fatalf("%d policy rows at ψ = 1 and 4, %d Table 3 rows", len(rows), len(t3.Rows))
	}
	for i, p := range rows {
		r := t3.Rows[i]
		if p.Circuit != r.Circuit || p.Psi != r.Psi ||
			p.Cold.DensityGrowth != float64(r.DensityAfterExchange-r.DensityAfterDFA) ||
			p.Cold.IRPct != r.IRImprovedPct || p.Cold.BondPct != r.BondImprovedPct {
			t.Errorf("row %d: policy %s ψ=%d cold %+v, Table 3 %+v", i, p.Circuit, p.Psi, p.Cold, r)
		}
	}
}
