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
