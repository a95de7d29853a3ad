package exp

import (
	"reflect"
	"strings"
	"testing"
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

func TestWarmStartShape(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-start table runs twenty annealers; skipped with -short")
	}
	res, err := WarmStart(1, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("got %d rows, want 10 (5 circuits x 2 tier counts)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.ColdMoves <= 0 || row.WarmMoves <= 0 {
			t.Errorf("%s ψ=%d: zero move counts %+v", row.Circuit, row.Psi, row)
		}
		if row.ColdDensity <= 0 || row.WarmDensity <= 0 {
			t.Errorf("%s ψ=%d: non-positive densities", row.Circuit, row.Psi)
		}
	}
	out := res.Format()
	for _, want := range []string{"warmCost", "avg cost delta"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
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

// WarmStart's cold run is Table 3's exchange: its final density and IR
// improvement equal Table 3's row for row.
func TestWarmStartColdIsTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("warm-start table runs twenty annealers; skipped with -short")
	}
	ws, err := WarmStart(1, Harness{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Table3(1, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ws.Rows) != len(t3.Rows) {
		t.Fatalf("%d warm-start rows, %d Table 3 rows", len(ws.Rows), len(t3.Rows))
	}
	for i, w := range ws.Rows {
		r := t3.Rows[i]
		if w.Circuit != r.Circuit || w.Psi != r.Psi ||
			w.ColdDensity != r.DensityAfterExchange || w.ColdIRPct != r.IRImprovedPct {
			t.Errorf("row %d: warm start %s ψ=%d cold density %d IR %v, Table 3 %s ψ=%d density %d IR %v",
				i, w.Circuit, w.Psi, w.ColdDensity, w.ColdIRPct, r.Circuit, r.Psi, r.DensityAfterExchange, r.IRImprovedPct)
		}
	}
}
