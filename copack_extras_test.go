package copack

import (
	"errors"
	"strings"
	"testing"
)

// TestNoPowerNetFailsBeforeAssignment: a design without a power net has
// no supply for the IR-drop model, so PlanContext refuses it with
// ErrNoPowerNet before the assign phase starts, for every engine and
// with or without the exchange.
func TestNoPowerNetFailsBeforeAssignment(t *testing.T) {
	text := strings.ReplaceAll(FormatDesign(buildTest(t, 1)), " power\n", " signal\n")
	p, err := ParseDesign(text)
	if err != nil {
		t.Fatal(err)
	}
	if p.Circuit.CountByClass()[Power] != 0 {
		t.Fatal("test design still has a power net")
	}
	for _, alg := range []Algorithm{DFA, IFA, RandomAssign, MCMF} {
		for _, skip := range []bool{false, true} {
			col := NewMetricsCollector()
			res, err := Plan(p, Options{Algorithm: alg, SkipExchange: skip, Recorder: col})
			if !errors.Is(err, ErrNoPowerNet) || res != nil {
				t.Errorf("%v skip=%v: result %v, error %v; want nil, ErrNoPowerNet", alg, skip, res, err)
			}
			if phases := col.Snapshot().Phases; len(phases) != 0 {
				t.Errorf("%v skip=%v: ran %v before refusing", alg, skip, phases)
			}
		}
	}
}

func TestDesignRoundTripThroughFacade(t *testing.T) {
	p := buildTest(t, 4)
	text := FormatDesign(p)
	got, err := ParseDesign(text)
	if err != nil {
		t.Fatalf("%v\n%s", err, text)
	}
	if got.Circuit.NumNets() != p.Circuit.NumNets() || got.Tiers != p.Tiers {
		t.Errorf("round trip lost data: %d/%d nets, %d/%d tiers",
			got.Circuit.NumNets(), p.Circuit.NumNets(), got.Tiers, p.Tiers)
	}
	// A plan on the re-read problem must work end to end.
	res, err := Plan(got, Options{SkipExchange: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.InitialStats.MaxDensity <= 0 {
		t.Error("no density on re-read problem")
	}
}

func TestCheckDesignRulesThroughFacade(t *testing.T) {
	p := buildTest(t, 1)
	res, err := Plan(p, Options{SkipExchange: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckDesignRules(p, res.Assignment)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Errorf("DFA plan violates default rules: %v", rep.Violations)
	}
}

func TestImproveViasThroughFacade(t *testing.T) {
	p := buildTest(t, 1)
	res, err := Plan(p, Options{Algorithm: RandomAssign, SkipExchange: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	plans, st, err := ImproveVias(p, res.Assignment, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.MaxDensity > res.InitialStats.MaxDensity {
		t.Errorf("via improvement worsened density: %d -> %d",
			res.InitialStats.MaxDensity, st.MaxDensity)
	}
	for side, plan := range plans {
		if plan == nil {
			t.Errorf("side %d: nil plan", side)
		}
	}
}

func TestFormatDesignIsParseable(t *testing.T) {
	p := buildTest(t, 1)
	text := FormatDesign(p)
	for _, directive := range []string{"circuit ", "package ", "spec ball", "spec finger", "spec rows", "quadrant bottom", "row "} {
		if !strings.Contains(text, directive) {
			t.Errorf("design text missing %q", directive)
		}
	}
}
