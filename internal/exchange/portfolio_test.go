package exchange

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/gen"
	"copack/internal/obs"
	"copack/internal/portfolio"
)

// TestPortfolioSingleArmEquivalence is the equivalence property: a portfolio
// holding one arm with no overrides must be byte-identical to a plain run
// with Restarts = Budget — same winning order, same Stats, and
// bitwise-equal restart costs — at workers 1 and 4.
func TestPortfolioSingleArmEquivalence(t *testing.T) {
	p, dfaA, _ := warmProblem(t)
	for _, workers := range []int{1, 4} {
		legacy, err := Run(p, dfaA, Options{Seed: 7, Restarts: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		port, err := Run(p, dfaA, Options{Seed: 7, Workers: workers,
			Portfolio: &portfolio.Config{Budget: 4, Arms: []portfolio.Arm{{Name: "legacy"}}}})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAssignment(legacy.Assignment, port.Assignment) {
			t.Errorf("workers=%d: assignments diverged", workers)
		}
		if legacy.Restart != port.Restart {
			t.Errorf("workers=%d: winner %d vs %d", workers, legacy.Restart, port.Restart)
		}
		if legacy.Stats != port.Stats {
			t.Errorf("workers=%d: stats %+v vs %+v", workers, legacy.Stats, port.Stats)
		}
		if len(legacy.RestartCosts) != len(port.RestartCosts) {
			t.Fatalf("workers=%d: %d vs %d restart costs", workers, len(legacy.RestartCosts), len(port.RestartCosts))
		}
		for k := range legacy.RestartCosts {
			lb, pb := math.Float64bits(legacy.RestartCosts[k]), math.Float64bits(port.RestartCosts[k])
			if lb != pb {
				t.Errorf("workers=%d restart %d: cost bits %#x vs %#x", workers, k, lb, pb)
			}
		}
		if legacy.Before != port.Before || legacy.After != port.After {
			t.Errorf("workers=%d: metrics diverged", workers)
		}
		if port.Portfolio == nil || port.Portfolio.Total != 4 {
			t.Errorf("workers=%d: portfolio outcome %+v", workers, port.Portfolio)
		}
	}
}

// TestRestartsOnlyReportsNoPortfolio: plain Restarts run as a one-arm
// portfolio, but only a caller-passed Portfolio is reported — no
// Result.Portfolio and no portfolio/ telemetry — so plan bodies and
// snapshots of Restarts runs keep their bytes.
func TestRestartsOnlyReportsNoPortfolio(t *testing.T) {
	p, dfaA, _ := warmProblem(t)
	col := obs.NewCollector()
	res, err := Run(p, dfaA, Options{Seed: 3, Restarts: 3, Recorder: col})
	if err != nil {
		t.Fatal(err)
	}
	if res.Portfolio != nil {
		t.Errorf("Restarts-only run reports a portfolio outcome: %+v", res.Portfolio)
	}
	snap := col.Snapshot()
	for _, k := range snap.Keys() {
		if strings.HasPrefix(k, "portfolio/") {
			t.Errorf("Restarts-only snapshot holds %q", k)
		}
	}
	if got := snap.Gauges["exchange/restarts"]; got != 3 {
		t.Errorf("exchange/restarts = %v, want 3", got)
	}
}

// TestRunRejectsBadSchedule: a schedule that cannot terminate, or a
// restart count above the portfolio's budget cap, fails the run before any
// anneal, for one restart and for several.
func TestRunRejectsBadSchedule(t *testing.T) {
	p, dfaA, _ := warmProblem(t)
	for _, restarts := range []int{1, 2} {
		_, err := Run(p, dfaA, Options{Seed: 1, Restarts: restarts, Schedule: anneal.Schedule{Cooling: 2}})
		if err == nil {
			t.Errorf("restarts=%d: cooling 2 accepted", restarts)
		}
	}
	if _, err := Run(p, dfaA, Options{Seed: 1, Restarts: 5000}); err == nil {
		t.Error("5000 restarts accepted above the 4096 budget cap")
	}
}

// pinnedPortfolioTraceHash is the FNV-64a arm-allocation trace hash of the
// replay run below (circuit1, seed 11, the default arm set, budget 10). It
// pins the full bandit behavior end to end — every allocation, seed, Eq 3
// cost bit and annealer counter — across runs, worker counts and GOMAXPROCS.
const pinnedPortfolioTraceHash uint64 = 0x40154cb8715b8364

func portfolioReplayRun(t *testing.T, workers int) *Result {
	t.Helper()
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1})
	initial, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, initial, Options{Seed: 11, Workers: workers, Portfolio: portfolio.Default(10)})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPortfolioReplayDeterminism: the trace hash must equal the pinned value
// on repeated runs, at several worker counts, and under a different
// GOMAXPROCS — the replay-determinism contract.
func TestPortfolioReplayDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		res := portfolioReplayRun(t, workers)
		if got := res.Portfolio.TraceHash(); got != pinnedPortfolioTraceHash {
			t.Errorf("workers=%d: trace hash %#x, want %#x", workers, got, pinnedPortfolioTraceHash)
		}
	}
	res := portfolioReplayRun(t, 1) // repeat: same process, fresh run
	if got := res.Portfolio.TraceHash(); got != pinnedPortfolioTraceHash {
		t.Errorf("repeat run: trace hash %#x, want %#x", got, pinnedPortfolioTraceHash)
	}
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	res = portfolioReplayRun(t, 4)
	if got := res.Portfolio.TraceHash(); got != pinnedPortfolioTraceHash {
		t.Errorf("GOMAXPROCS=2: trace hash %#x, want %#x", got, pinnedPortfolioTraceHash)
	}
}

// TestPortfolioRunShape checks the adaptive run's invariants on a real
// instance: full budget spent, a legal winning order, restart costs aligned
// with the trace, and the winner matching Result.Restart.
func TestPortfolioRunShape(t *testing.T) {
	res := portfolioReplayRun(t, 2)
	out := res.Portfolio
	if out.Total != 10 || len(res.RestartCosts) != 10 {
		t.Fatalf("Total %d, RestartCosts %d, want 10", out.Total, len(res.RestartCosts))
	}
	if !res.Legal {
		t.Error("portfolio winner is illegal")
	}
	if res.Restart != out.BestRestart {
		t.Errorf("Result.Restart %d, Outcome.BestRestart %d", res.Restart, out.BestRestart)
	}
	for _, al := range out.Trace {
		if got := res.RestartCosts[al.Restart]; math.Float64bits(got) != math.Float64bits(al.Cost) {
			t.Errorf("restart %d: trace cost %v, RestartCosts %v", al.Restart, al.Cost, got)
		}
	}
	if math.Float64bits(res.RestartCosts[res.Restart]) != math.Float64bits(out.BestCost) {
		t.Errorf("winner cost %v, outcome best %v", res.RestartCosts[res.Restart], out.BestCost)
	}
}

// TestPortfolioInvalidConfigRejected: validation runs before any annealing.
func TestPortfolioInvalidConfigRejected(t *testing.T) {
	p, dfaA, _ := warmProblem(t)
	_, err := Run(p, dfaA, Options{Seed: 1, Portfolio: &portfolio.Config{Budget: 0,
		Arms: []portfolio.Arm{{Name: "a"}}}})
	if err == nil {
		t.Fatal("zero-budget portfolio accepted")
	}
}

// TestPortfolioInterrupted: a pre-cancelled context still yields a usable
// interrupted Result whose order never loses ground versus the initial.
func TestPortfolioInterrupted(t *testing.T) {
	p, dfaA, _ := warmProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, p, dfaA, Options{Seed: 1, Workers: 2,
		Portfolio: &portfolio.Config{Budget: 3, Arms: []portfolio.Arm{{Name: "a"}, {Name: "b", MoveScale: 0.5}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("pre-cancelled context did not interrupt")
	}
	if !res.Legal {
		t.Error("interrupted portfolio returned an illegal order")
	}
}

// TestPortfolioWarmArmUsesEngineOrder: an interrupted pull of a warm arm
// falls back to that arm's engine order, not the cold initial — and a warm
// arm's start cost is measured against the shared initial baseline.
func TestPortfolioWarmArmUsesEngineOrder(t *testing.T) {
	p, dfaA, mcmfA := warmProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, p, dfaA, Options{Seed: 1,
		Portfolio: &portfolio.Config{Budget: 1,
			Arms: []portfolio.Arm{{Name: "warm", Engine: portfolio.EngineMCMF}}}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("expected an interrupted run")
	}
	if !sameAssignment(res.Assignment, mcmfA) {
		t.Error("interrupted MCMF-warm pull did not return the MCMF order")
	}
	// Cross-check the reported cost against Score on the same baseline.
	got, err := Score(p, dfaA, res.Assignment, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(res.RestartCosts[res.Restart]) {
		t.Errorf("Score %v, RestartCosts[%d] %v", got, res.Restart, res.RestartCosts[res.Restart])
	}
}
