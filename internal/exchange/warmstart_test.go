package exchange

import (
	"context"
	"fmt"
	"math"
	"testing"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/design"
	"copack/internal/faultinject"
	"copack/internal/gen"
	"copack/internal/obs"
)

// warmProblem builds circuit 1 at tiers ψ with its DFA order (the initial
// order of every run here) and its MCMF order (the warm start the
// multi-restart rule picks for it at ψ ≥ 2).
func warmProblem(t *testing.T, tiers int) (*core.Problem, *core.Assignment, *core.Assignment) {
	t.Helper()
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1, Tiers: tiers})
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mcmfA, err := assign.MCMF(p)
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

// score recomputes the Eq 3 cost of order a in the frame anchored at
// baseline: the quantity RunContext reports in RestartCosts when baseline
// is that run's initial argument, whether the restart started there or
// from a warm start. Both orders must be monotonic-legal.
func score(p *core.Problem, baseline, a *core.Assignment, opt Options) (float64, error) {
	for _, o := range []*core.Assignment{baseline, a} {
		if err := core.CheckMonotonic(p, o); err != nil {
			return 0, err
		}
	}
	return eq3Terms(p, newState(p, baseline, opt.withDefaults(p), a)).Total, nil
}

// TestSectionDataReanchor is the differential test for the warm-start
// primitive: after reanchoring to any legal order, the incremental caches
// must agree with the from-scratch Eq 2 computation against the original
// baseline, and reanchoring back to the baseline must restore growth 0.
func TestSectionDataReanchor(t *testing.T) {
	p, dfaA, mcmfA := warmProblem(t, 1)
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
			if sd.ord[id] != fresh.ord[id] {
				t.Errorf("%v: net %d ordinal %d after reanchor, fresh build says %d",
					side, id, sd.ord[id], fresh.ord[id])
			}
		}
		sd.reanchor(base)
		if got := sd.worst(); got != 0 {
			t.Errorf("%v: reanchor back to baseline leaves worst %d, want 0", side, got)
		}
	}
}

// tinyDesign is a 7-net, ψ = 2 design on which IFA, MCMF and DFA each give
// a different order. A generator cannot build one: below 8 nets it fills
// one ball line per quadrant, where every engine's order is forced.
const tinyDesign = `circuit tiny
net N0 power 1
net N1 signal 2
net N2 signal 1
net N3 power 2
net N4 ground 1
net N5 signal 2
net N6 power 1
package tiny
spec ball 0.2 1.2 via 0.1
spec finger 0.1 0.2 0.12
spec rows 2
tiers 2
quadrant bottom
row N0 N1 N2 -
row N3 -
quadrant right
row N4 -
row -
quadrant top
row N5 -
row -
quadrant left
row N6 -
row -
`

// TestWarmStartPicksEngine: a warm start comes from IFA below 8 nets, from
// MCMF up to 512 nets with a supply net, and from DFA above 512 nets or
// with no supply net. In every case the three engines' orders differ.
func TestWarmStartPicksEngine(t *testing.T) {
	tiny, err := design.Parse(tinyDesign)
	if err != nil {
		t.Fatal(err)
	}
	custom := func(fingers int) *core.Problem {
		return gen.MustBuild(gen.TestCircuit{Name: "custom", Fingers: fingers,
			BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}, gen.Options{Seed: 1, Tiers: 2})
	}
	engines := []func(*core.Problem) (*core.Assignment, error){
		assign.IFA,
		assign.MCMF,
		func(p *core.Problem) (*core.Assignment, error) { return assign.DFA(p, assign.DFAOptions{}) },
	}
	const ifa, mcmf, dfa = 0, 1, 2
	cases := []struct {
		name   string
		p      *core.Problem
		engine int
	}{
		{"7 nets: ifa", tiny, ifa},
		{"circuit1: mcmf", gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1, Tiers: 4}), mcmf},
		{"512 nets: mcmf", custom(512), mcmf},
		{"513 nets: dfa", custom(513), dfa},
		{"no supply: dfa", gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1, Tiers: 4, PowerEvery: -1, GroundEvery: -1}), dfa},
	}
	for _, c := range cases {
		got, err := warmStart(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for e, engine := range engines {
			order, err := engine(c.p)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if sameAssignment(got, order) != (e == c.engine) {
				t.Errorf("%s: warm start matches engine %d: %v", c.name, e, e != c.engine)
			}
		}
	}
}

// TestWarmStartRun exercises the start rule end to end. A multi-restart
// run at ψ ≥ 2 anneals from the warm start on the warm schedule (entered
// at 0.05 with half the plateau length), its winner is legal, and its
// restart costs are measured against the shared DFA baseline, so score
// reproduces them exactly. A single anneal at ψ ≥ 2 and several restarts
// at ψ = 1 run the schedule cold.
func TestWarmStartRun(t *testing.T) {
	p, dfaA, _ := warmProblem(t, 4)
	col := obs.NewCollector()
	opt := Options{Seed: 3, Restarts: 2, Workers: 1, Recorder: col}
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
	got, err := score(p, dfaA, res.Assignment, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.RestartCosts[res.Restart]; got != want {
		t.Errorf("score of winning order %v, RestartCosts[%d] %v — baselines diverged",
			got, res.Restart, want)
	}
	for k, c := range res.RestartCosts {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			t.Errorf("restart %d cost %v", k, c)
		}
	}
	plateau := float64(4 * p.Circuit.NumNets())
	snap := col.Snapshot()
	for _, k := range []string{"0", "1"} {
		if got := snap.Gauges["anneal/restart"+k+"/temp_initial"]; got != 0.05 {
			t.Errorf("warm restart %s entered at %v, want 0.05", k, got)
		}
		if got := snap.Gauges["anneal/restart"+k+"/moves_per_temp"]; got != plateau/2 {
			t.Errorf("warm restart %s plateau %v, want %v", k, got, plateau/2)
		}
	}

	// The paper path: cold from the initial order on the default schedule.
	for _, c := range []struct {
		tiers, restarts int
	}{{4, 1}, {1, 2}} {
		p, dfaA, _ := warmProblem(t, c.tiers)
		col := obs.NewCollector()
		if _, err := Run(p, dfaA, Options{Seed: 3, Restarts: c.restarts, Recorder: col}); err != nil {
			t.Fatal(err)
		}
		snap := col.Snapshot()
		if got := snap.Gauges["anneal/restart0/temp_initial"]; got != 1 {
			t.Errorf("ψ=%d restarts=%d entered at %v, want the cold 1", c.tiers, c.restarts, got)
		}
		if got := snap.Gauges["anneal/restart0/moves_per_temp"]; got != plateau {
			t.Errorf("ψ=%d restarts=%d plateau %v, want %v", c.tiers, c.restarts, got, plateau)
		}
	}
}

// TestWarmStartInterruptedKeepsLowestOrder: a cut restart of a
// multi-restart run at ψ ≥ 2 returns whichever of the order it reached,
// its warm start order and the initial order Eq 3 scores lowest. On
// circuit 1 at ψ = 4 the MCMF start scores 6.50 and the DFA initial order
// 1.4, so every cut restart hands back the DFA order — never a worse
// intermediate, and never the warm start that scores above Initial.
func TestWarmStartInterruptedKeepsLowestOrder(t *testing.T) {
	p, dfaA, mcmfA := warmProblem(t, 4)
	opt := Options{Seed: 1, Restarts: 3, Workers: 2}
	want, err := score(p, dfaA, dfaA, opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := score(p, dfaA, mcmfA, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want != 1.4 || !(warm > want) {
		t.Fatalf("Eq 3 of the DFA order %v, of the MCMF order %v; want 1.4 and more", want, warm)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, p, dfaA, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("pre-cancelled context did not interrupt the run")
	}
	if !sameAssignment(res.Assignment, dfaA) {
		t.Error("interrupted warm run did not return the initial DFA order")
	}
	if len(res.RestartCosts) != 3 {
		t.Fatalf("%d restart costs, want 3", len(res.RestartCosts))
	}
	if res.Restart != 0 {
		t.Errorf("three tied restarts won by restart %d, want the lowest index 0", res.Restart)
	}
	for k, c := range res.RestartCosts {
		if math.Float64bits(c) != math.Float64bits(want) {
			t.Errorf("restart %d cost %v, want the DFA order's %v", k, c, want)
		}
	}

	// Cut mid-run instead: restart 0 (sequential, Workers 1) stops at its
	// second plateau, in a state Eq 3 scores above the initial order, and
	// falls back to it; restart 1 is cut before its first move.
	t.Cleanup(faultinject.Reset)
	faultinject.Arm(faultinject.Fault{Point: faultinject.AnnealPlateau, After: 2, Repeat: true})
	res, err = Run(p, dfaA, Options{Seed: 1, Restarts: 2, Workers: 1})
	faultinject.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || !sameAssignment(res.Assignment, dfaA) {
		t.Errorf("cut warm run: interrupted %v, DFA order %v", res.Interrupted, sameAssignment(res.Assignment, dfaA))
	}
	for k, c := range res.RestartCosts {
		if math.Float64bits(c) != math.Float64bits(want) {
			t.Errorf("cut restart %d cost %v, want the DFA order's %v", k, c, want)
		}
	}
}

// TestWarmStartTimeToTarget: on circuit 3, ψ = 4, seed 1, the paper's one
// cold DFA-seeded anneal sets the target, its final Eq 3 cost. Each of the
// two warm restarts the start rule runs for Restarts: 2 must reach it, in
// fewer proposed moves than the cold anneal took. All runs score against
// the shared DFA baseline, so the costs compare directly. The costs and
// move counts are pinned.
func TestWarmStartTimeToTarget(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1, Tiers: 4})
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(p, dfaA, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	target := cold.RestartCosts[0]

	col := obs.NewCollector()
	warm, err := Run(p, dfaA, Options{Seed: 1, Restarts: 2, Recorder: col})
	if err != nil {
		t.Fatal(err)
	}
	snap := col.Snapshot()
	var moves [2]int
	for k, c := range warm.RestartCosts {
		moves[k] = int(snap.Counters[fmt.Sprintf("exchange/restart%d/moves_priced", k)])
		if c > target {
			t.Errorf("warm restart %d ends at %.6f, above the cold target %.6f", k, c, target)
		}
		if moves[k] >= cold.Stats.Proposed {
			t.Errorf("warm restart %d proposed %d moves, the cold anneal %d", k, moves[k], cold.Stats.Proposed)
		}
	}
	checkPinned(t, "cold", target, cold.Stats.Proposed, 10.756422, 72513)
	checkPinned(t, "warm restart 0", warm.RestartCosts[0], moves[0], 8.305120, 24525)
	checkPinned(t, "warm restart 1", warm.RestartCosts[1], moves[1], 8.317163, 24263)
}

// checkPinned fails unless a run ended at the pinned Eq 3 cost, to the six
// decimals the docs print, after exactly the pinned number of proposed
// moves.
func checkPinned(t *testing.T, name string, cost float64, moves int, wantCost float64, wantMoves int) {
	t.Helper()
	if math.Abs(cost-wantCost) > 5e-7 || moves != wantMoves {
		t.Errorf("%s: cost %.6f over %d moves, pinned %.6f over %d", name, cost, moves, wantCost, wantMoves)
	}
}

// TestRunRejectsBadSchedule: a schedule that cannot terminate, or a
// restart count above the 4096 cap, fails the run before any anneal, for
// one restart and for several. A schedule whose floor lies above the warm
// entry temperature 0.05 is valid for a cold run and for a warm one, which
// enters at the floor and runs that one plateau.
func TestRunRejectsBadSchedule(t *testing.T) {
	p, dfaA, _ := warmProblem(t, 1)
	for _, restarts := range []int{1, 2} {
		_, err := Run(p, dfaA, Options{Seed: 1, Restarts: restarts, Schedule: anneal.Schedule{Cooling: 2}})
		if err == nil {
			t.Errorf("restarts=%d: cooling 2 accepted", restarts)
		}
	}
	if _, err := Run(p, dfaA, Options{Seed: 1, Restarts: 5000}); err == nil {
		t.Error("5000 restarts accepted above the 4096 cap")
	}
	p4, dfa4, _ := warmProblem(t, 4)
	high := anneal.Schedule{FinalTemp: 0.1, MovesPerTemp: 8}
	if _, err := Run(p4, dfa4, Options{Seed: 1, Schedule: high}); err != nil {
		t.Errorf("cold run with floor 0.1: %v", err)
	}
	res, err := Run(p4, dfa4, Options{Seed: 1, Restarts: 2, Schedule: high})
	if err != nil {
		t.Fatalf("warm run with floor 0.1: %v", err)
	}
	if res.Stats.Plateaus != 1 || res.Stats.LastTemp != 0.1 {
		t.Errorf("warm run with floor 0.1: %d plateaus, last at %g; want one at 0.1", res.Stats.Plateaus, res.Stats.LastTemp)
	}
}
