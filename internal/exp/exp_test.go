package exp

import (
	"strings"
	"testing"
)

func TestTable1Text(t *testing.T) {
	txt := Table1Text()
	for _, want := range []string{"circuit1", "circuit5", "448", "96"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Table1Text missing %q:\n%s", want, txt)
		}
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	res, err := Table2(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !(row.DFADensity <= row.IFADensity && row.IFADensity <= row.RandomDensity) {
			t.Errorf("%s: density order broken: %d/%d/%d",
				row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity)
		}
		if !(row.DFAWirelen < row.RandomWirelen) {
			t.Errorf("%s: DFA wirelength %v not below random %v",
				row.Circuit, row.DFAWirelen, row.RandomWirelen)
		}
	}
	// The paper's average ratios: density 0.63 (IFA) and 0.36 (DFA);
	// wirelength 0.88 and 0.82. Require the same ballpark.
	if res.AvgDensityDFA >= res.AvgDensityIFA || res.AvgDensityIFA >= 1 {
		t.Errorf("density ratios out of order: IFA %.2f, DFA %.2f", res.AvgDensityIFA, res.AvgDensityDFA)
	}
	if res.AvgDensityDFA > 0.6 {
		t.Errorf("DFA density ratio %.2f far from paper's 0.36", res.AvgDensityDFA)
	}
	if res.AvgWirelenDFA >= 1 || res.AvgWirelenIFA >= 1 {
		t.Errorf("wirelength ratios not improvements: %v %v", res.AvgWirelenIFA, res.AvgWirelenDFA)
	}
	out := res.Format()
	if !strings.Contains(out, "avg ratio") || !strings.Contains(out, "circuit3") {
		t.Errorf("Format output incomplete:\n%s", out)
	}
}

func TestFig5MatchesPaper(t *testing.T) {
	f, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if f.Random != f.PaperRandom || f.IFA != f.PaperIFA || f.DFA != f.PaperDFA {
		t.Errorf("fig5 = %+v", f)
	}
	if !strings.Contains(f.Format(), "random 4 (paper 4)") {
		t.Errorf("Format = %s", f.Format())
	}
}

func TestFig13MatchesPaper(t *testing.T) {
	f, err := Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if f.IFA != 6 {
		t.Errorf("IFA density = %d, want 6", f.IFA)
	}
	if f.DFA >= f.IFA {
		t.Errorf("DFA density %d not better than IFA %d", f.DFA, f.IFA)
	}
	if !strings.Contains(f.Format(), "paper 6") {
		t.Errorf("Format = %s", f.Format())
	}
}

func TestFig6QuickShape(t *testing.T) {
	res, err := Fig6(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.PadCount != 138 {
		t.Errorf("pad count = %d, want 138 (the paper's chip)", res.PadCount)
	}
	r, g, p := res.Drop["random"], res.Drop["regular"], res.Drop["proposed"]
	if !(r > g && g > p) {
		t.Errorf("drop ordering broken: random %.4f, regular %.4f, proposed %.4f", r, g, p)
	}
	for name, svg := range res.SVG {
		if len(svg) == 0 || !strings.Contains(string(svg), "<svg") {
			t.Errorf("%s: bad SVG", name)
		}
	}
}

func TestFig15(t *testing.T) {
	res, err := Fig15(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"random", "ifa", "dfa"} {
		if len(res.SVG[name]) == 0 {
			t.Errorf("%s: no SVG", name)
		}
		if res.Density[name] == 0 || res.Wirelen[name] == 0 {
			t.Errorf("%s: missing stats", name)
		}
	}
	if !(res.Density["dfa"] <= res.Density["ifa"] && res.Density["ifa"] <= res.Density["random"]) {
		t.Errorf("density ordering broken: %v", res.Density)
	}
	if res.Wirelen["dfa"] >= res.Wirelen["random"] {
		t.Errorf("DFA wirelength %v not below random %v", res.Wirelen["dfa"], res.Wirelen["random"])
	}
}

func TestTable3ShapeMatchesPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("table 3 runs ten annealers; skipped with -short")
	}
	res, err := Table3(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		// Exchange trades a bounded density increase for IR (paper:
		// +2..3 units).
		if row.DensityAfterExchange < row.DensityAfterDFA {
			t.Errorf("%s ψ=%d: density decreased, suspicious: %d -> %d",
				row.Circuit, row.Psi, row.DensityAfterDFA, row.DensityAfterExchange)
		}
		if row.DensityAfterExchange > row.DensityAfterDFA+5 {
			t.Errorf("%s ψ=%d: density blew up: %d -> %d",
				row.Circuit, row.Psi, row.DensityAfterDFA, row.DensityAfterExchange)
		}
		if row.IRImprovedPct <= 0 {
			t.Errorf("%s ψ=%d: IR got worse (%.2f%%)", row.Circuit, row.Psi, row.IRImprovedPct)
		}
		if row.Psi == 4 && row.OmegaAfter >= row.OmegaBefore {
			t.Errorf("%s: ω did not improve: %d -> %d", row.Circuit, row.OmegaBefore, row.OmegaAfter)
		}
	}
	// Paper averages: 10.61% (ψ=1), 4.58% (ψ=4), bonding 15.66%.
	if res.AvgIRPct[1] < 2 || res.AvgIRPct[1] > 30 {
		t.Errorf("ψ=1 avg IR improvement %.2f%% outside plausible band", res.AvgIRPct[1])
	}
	if res.AvgBondPct < 5 || res.AvgBondPct > 30 {
		t.Errorf("avg bonding improvement %.2f%% outside the paper's band", res.AvgBondPct)
	}
	out := res.Format()
	if !strings.Contains(out, "avg IR improvement") {
		t.Errorf("Format output incomplete:\n%s", out)
	}
}

func TestRandomBaselinePicksBest(t *testing.T) {
	// More tries can only improve (or match) the best density.
	resA, err := Table2(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := Table2(3, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resA.Rows {
		if resB.Rows[i].RandomDensity > resA.Rows[i].RandomDensity {
			t.Errorf("%s: more tries worsened the baseline: %d vs %d",
				resA.Rows[i].Circuit, resA.Rows[i].RandomDensity, resB.Rows[i].RandomDensity)
		}
	}
}

func TestFlipChipAdvantage(t *testing.T) {
	res, err := FlipChip([]int{4, 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Advantage() <= 0 {
			t.Errorf("pads %d: flip-chip not better (%v vs %v)", row.Pads, row.FlipChipDrop, row.RingDrop)
		}
	}
	if !strings.Contains(res.Format(), "flip-chip") {
		t.Errorf("Format: %s", res.Format())
	}
}
