package exp

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestNewDist(t *testing.T) {
	d := NewDist([]float64{1, 2, 3, 4})
	if d.Mean != 2.5 || d.Min != 1 || d.Max != 4 || d.N != 4 {
		t.Errorf("Dist = %+v", d)
	}
	if math.Abs(d.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("Std = %v", d.Std)
	}
	empty := NewDist(nil)
	if empty.N != 0 || empty.Mean != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Errorf("empty Dist = %+v", empty)
	}
	if !strings.Contains(d.String(), "n=4") {
		t.Errorf("String = %s", d.String())
	}
}

func TestSeeds(t *testing.T) {
	s := Seeds(3)
	if len(s) != 3 || s[0] != 1 || s[2] != 3 {
		t.Errorf("Seeds = %v", s)
	}
}

func TestSweepTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs table 2 multiple times; skipped with -short")
	}
	res, err := SweepTable2(context.Background(), Seeds(3), 5, Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DensityDFA.N != 15 { // 5 circuits × 3 seeds
		t.Errorf("pooled n = %d, want 15", res.DensityDFA.N)
	}
	// The conclusions must hold distributionally, not just on one seed:
	// DFA beats IFA beats random on density, strictly, across the sweep.
	if res.DensityDFA.Mean >= res.DensityIFA.Mean {
		t.Errorf("DFA (%v) not below IFA (%v)", res.DensityDFA, res.DensityIFA)
	}
	if res.DensityIFA.Max >= 1 {
		t.Errorf("some IFA run matched random: %v", res.DensityIFA)
	}
	if res.WirelenDFA.Mean >= 1 || res.WirelenIFA.Mean >= 1 {
		t.Errorf("wirelength ratios not improvements: %v %v", res.WirelenIFA, res.WirelenDFA)
	}
	if len(res.PerCircuitDensityDFA) != 5 {
		t.Errorf("per-circuit map has %d entries", len(res.PerCircuitDensityDFA))
	}
	out := res.Format()
	if !strings.Contains(out, "density DFA") || !strings.Contains(out, "circuit5") {
		t.Errorf("Format incomplete:\n%s", out)
	}
}

func TestSweepNeedsSeeds(t *testing.T) {
	if _, err := SweepTable2(context.Background(), nil, 1, Harness{Workers: 1}); err == nil {
		t.Error("empty sweep accepted")
	}
}

func TestSweepTable3(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep3 runs many annealers; skipped with -short")
	}
	res, err := SweepTable3(context.Background(), Seeds(2), Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.IRPct[1].N != 10 || res.IRPct[4].N != 10 {
		t.Fatalf("pooled ns: %d/%d", res.IRPct[1].N, res.IRPct[4].N)
	}
	if res.IRPct[1].Mean <= 0 || res.IRPct[4].Mean <= 0 {
		t.Errorf("IR improvements not positive: %v %v", res.IRPct[1], res.IRPct[4])
	}
	if res.BondPct.Mean < 5 || res.BondPct.Mean > 30 {
		t.Errorf("bonding improvement %v outside the paper's band", res.BondPct)
	}
	if res.DensityGrowth.Mean < 0 || res.DensityGrowth.Mean > 5 {
		t.Errorf("density growth %v out of band", res.DensityGrowth)
	}
	if !strings.Contains(res.Format(), "bonding improvement") {
		t.Errorf("Format: %s", res.Format())
	}
	if _, err := SweepTable3(context.Background(), nil, Harness{Workers: 1}); err == nil {
		t.Error("empty sweep accepted")
	}
}
