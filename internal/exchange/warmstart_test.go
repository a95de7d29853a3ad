package exchange

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/portfolio"
)

func warmProblem(t *testing.T) (*core.Problem, *core.Assignment, *core.Assignment) {
	t.Helper()
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1})
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mcmfA, err := assign.MCMF(p, assign.MCMFOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p, dfaA, mcmfA
}

func sameAssignment(a, b *core.Assignment) bool {
	for _, side := range bga.Sides() {
		if len(a.Slots[side]) != len(b.Slots[side]) {
			return false
		}
		for i := range a.Slots[side] {
			if a.Slots[side][i] != b.Slots[side][i] {
				return false
			}
		}
	}
	return true
}

// TestSectionDataReanchor is the differential test for the warm-start
// primitive: after reanchoring to any legal order, the incremental caches
// must agree with the from-scratch Eq 2 computation against the original
// baseline, and reanchoring back to the baseline must restore growth 0.
func TestSectionDataReanchor(t *testing.T) {
	p, dfaA, mcmfA := warmProblem(t)
	for _, side := range bga.Sides() {
		base := dfaA.Slots[side]
		sd := newSectionData(p, side, base, false)
		warm := mcmfA.Slots[side]
		sd.reanchor(warm)
		if got, want := sd.worst(), sd.id(warm); got != want {
			t.Errorf("%v: cached worst %d, from-scratch id %d", side, got, want)
		}
		// The multiset must account for every watched section exactly once.
		var total, sections int32
		for _, b := range sd.bucket {
			total += b
		}
		for _, c := range sd.cur {
			sections += int32(len(c))
		}
		if total != sections {
			t.Errorf("%v: growth multiset holds %d entries, want %d sections", side, total, sections)
		}
		// Delimiter ordinals must match a fresh walk of the warm order.
		fresh := newSectionData(p, side, warm, false)
		for _, id := range warm {
			if sd.ord(id) != fresh.ord(id) {
				t.Errorf("%v: net %d ordinal %d after reanchor, fresh build says %d",
					side, id, sd.ord(id), fresh.ord(id))
			}
		}
		sd.reanchor(base)
		if got := sd.worst(); got != 0 {
			t.Errorf("%v: reanchor back to baseline leaves worst %d, want 0", side, got)
		}
	}
}

// mcmfArm is a one-arm portfolio that warm-starts every restart from the
// MCMF order.
func mcmfArm(budget int) *portfolio.Config {
	return &portfolio.Config{Budget: budget,
		Arms: []portfolio.Arm{{Name: "mcmf", Engine: portfolio.EngineMCMF}}}
}

// TestMCMFArmReplaysWarmStartHook pins the warm start's migration from the
// removed per-restart warm-start hook to an engine arm: an {Engine: mcmf}
// arm with Budget 2 must reproduce, bit for bit, what the hook returning
// the MCMF order for both restarts of {Seed: 3, Restarts: 2} produced.
func TestMCMFArmReplaysWarmStartHook(t *testing.T) {
	p, dfaA, _ := warmProblem(t)
	res, err := Run(p, dfaA, Options{Seed: 3, Portfolio: mcmfArm(2)})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, side := range bga.Sides() {
		for _, id := range res.Assignment.Slots[side] {
			fmt.Fprintf(h, "%d,", id)
		}
		fmt.Fprint(h, ";")
	}
	if got, want := h.Sum64(), uint64(0x04cff2aa5eb3ac4f); got != want {
		t.Errorf("assignment hash %#016x, want %#016x", got, want)
	}
	if res.Restart != 0 {
		t.Errorf("winning restart %d, want 0", res.Restart)
	}
	want := []uint64{0x4006a2c649fd0a5c, 0x4006a8b1927f4297}
	if len(res.RestartCosts) != len(want) {
		t.Fatalf("%d restart costs, want %d", len(res.RestartCosts), len(want))
	}
	for k, c := range res.RestartCosts {
		if math.Float64bits(c) != want[k] {
			t.Errorf("RestartCosts[%d] = %#016x, want %#016x", k, math.Float64bits(c), want[k])
		}
	}
}

// TestWarmStartRun exercises engine arms end to end: the warm run must be
// legal, its restart costs must be measured against the shared DFA baseline
// (so Score reproduces them exactly), and warm and cold arms mix in one
// run — here restart 0 anneals from the MCMF order and restart 1 cold from
// dfaA (the never-pulled cold arm survives the halving).
func TestWarmStartRun(t *testing.T) {
	p, dfaA, _ := warmProblem(t)
	opt := Options{Seed: 3, Workers: 1, Portfolio: &portfolio.Config{Budget: 2,
		Arms: []portfolio.Arm{{Name: "warm", Engine: portfolio.EngineMCMF}, {Name: "cold"}}}}
	res, err := Run(p, dfaA, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Legal {
		t.Fatal("warm-started run produced an illegal order")
	}
	if err := core.CheckMonotonic(p, res.Assignment); err != nil {
		t.Fatal(err)
	}
	if len(res.RestartCosts) != 2 {
		t.Fatalf("RestartCosts length %d, want 2", len(res.RestartCosts))
	}
	for k, al := range res.Portfolio.Trace {
		if al.Restart != k || al.Arm != k {
			t.Errorf("pull %d ran restart %d on arm %d, want restart %d on arm %d", k, al.Restart, al.Arm, k, k)
		}
	}
	got, err := Score(p, dfaA, res.Assignment, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.RestartCosts[res.Restart]; got != want {
		t.Errorf("Score of winning order %v, RestartCosts[%d] %v — baselines diverged",
			got, res.Restart, want)
	}
	for k, c := range res.RestartCosts {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Errorf("restart %d cost %v", k, c)
		}
	}
}

// TestWarmStartInterruptedKeepsWarmOrder: anneals cancelled before any
// move must hand back the warm-start order (never a worse intermediate,
// and not the cold initial — the fallback is anchored per restart), so
// every restart of an MCMF arm scores exactly the MCMF order's cost.
func TestWarmStartInterruptedKeepsWarmOrder(t *testing.T) {
	p, dfaA, mcmfA := warmProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Seed: 1, Workers: 2, Portfolio: mcmfArm(3)}
	res, err := RunContext(ctx, p, dfaA, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("pre-cancelled context did not interrupt the run")
	}
	if !sameAssignment(res.Assignment, mcmfA) {
		t.Error("interrupted warm run did not return the warm-start order")
	}
	want, err := Score(p, dfaA, mcmfA, opt)
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range res.RestartCosts {
		if math.Float64bits(c) != math.Float64bits(want) {
			t.Errorf("restart %d cost %v, want the MCMF order's %v", k, c, want)
		}
	}
}
