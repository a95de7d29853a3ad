package copack

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"copack/internal/faultinject"
)

// slowOpts is a schedule that would anneal for far longer than any test
// deadline used here, so deadline tests actually interrupt it.
func slowOpts() Options {
	return Options{
		Seed: 1,
		Exchange: ExchangeOptions{
			Schedule: Schedule{InitialTemp: 1, FinalTemp: 1e-12, Cooling: 0.99999, MovesPerTemp: 100000},
		},
	}
}

func TestPlanContextDeadlineReturnsPartialQuickly(t *testing.T) {
	p, err := BuildCircuit(Table1Circuits()[4], BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const deadline = 300 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	res, err := PlanContext(ctx, p, slowOpts())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 2*deadline {
		t.Errorf("PlanContext took %v, want <= %v (~2x the deadline)", elapsed, 2*deadline)
	}
	if !res.Partial {
		t.Fatal("deadline run not marked Partial")
	}
	if res.Stopped == "" {
		t.Error("Partial result has empty Stopped reason")
	}
	// The best-so-far assignment must still be a legal plan with a full
	// report attached.
	if err := CheckMonotonic(p, res.Assignment); err != nil {
		t.Errorf("partial assignment not monotonic-legal: %v", err)
	}
	if res.FinalStats == nil || res.FinalStats.MaxDensity == 0 {
		t.Error("partial result lacks routing stats")
	}
	if res.IRDropBefore < 0 {
		t.Errorf("partial result lacks IR-drop report (%g)", res.IRDropBefore)
	}
	if res.Exchange != nil && !res.Exchange.Interrupted && !strings.Contains(res.Stopped, "exchange") {
		t.Errorf("unexpected partial state: exchange=%+v stopped=%q", res.Exchange.Stats, res.Stopped)
	}
}

func TestPlanBudgetOption(t *testing.T) {
	p, err := BuildCircuit(Table1Circuits()[4], BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := slowOpts()
	opt.Budget = 200 * time.Millisecond
	start := time.Now()
	res, err := Plan(p, opt) // plain Plan: Budget alone must cut the run
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("budgeted run not marked Partial")
	}
	if elapsed > 2*opt.Budget {
		t.Errorf("budgeted Plan took %v, want <= %v", elapsed, 2*opt.Budget)
	}
}

func TestPlanContextUncancelledMatchesPlan(t *testing.T) {
	build := func() *Problem {
		p, err := BuildCircuit(Table1Circuits()[0], BuildOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, err := Plan(build(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanContext(context.Background(), build(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.Partial || b.Partial {
		t.Fatalf("uncancelled runs marked Partial (%v, %v)", a.Partial, b.Partial)
	}
	// Byte-identical plans for the same seed.
	pa, pb := build(), build()
	sa := FormatDesign(pa) + "\n" + formatAssignment(t, pa, a.Assignment)
	sb := FormatDesign(pb) + "\n" + formatAssignment(t, pb, b.Assignment)
	if sa != sb {
		t.Error("Plan and PlanContext produced different plans for the same seed")
	}
	if a.FinalStats.MaxDensity != b.FinalStats.MaxDensity ||
		a.FinalStats.Wirelength != b.FinalStats.Wirelength ||
		a.IRDropAfter != b.IRDropAfter {
		t.Errorf("metrics diverge: %+v/%g vs %+v/%g", a.FinalStats, a.IRDropAfter, b.FinalStats, b.IRDropAfter)
	}
}

func formatAssignment(t *testing.T, p *Problem, a *Assignment) string {
	t.Helper()
	var sb strings.Builder
	if err := WriteSolution(&sb, p, a); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestPlanContextCancelledBeforeStart(t *testing.T) {
	p := buildTest(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PlanContext(ctx, p, quickOpts()); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled PlanContext returned %v, want context.Canceled", err)
	}
}

func TestPlanStarvedSolverIsPartialNotSilent(t *testing.T) {
	p := buildTest(t, 1)
	opt := quickOpts()
	opt.Solve = SolveOptions{MaxIter: 2}
	res, err := Plan(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("starved-solver run not marked Partial")
	}
	if !strings.Contains(res.Stopped, "IR solver") {
		t.Errorf("Stopped = %q, want an IR-solver reason", res.Stopped)
	}
	if !strings.Contains(res.Stopped, "residual") {
		t.Errorf("Stopped = %q, want the residual reported", res.Stopped)
	}
	// The estimate is still reported — degraded, not dropped.
	if res.IRDropBefore < 0 || res.IRDropAfter < 0 {
		t.Errorf("starved run lost the IR estimate: %g / %g", res.IRDropBefore, res.IRDropAfter)
	}
}

func TestPlanFullSolveStaysComplete(t *testing.T) {
	res, err := Plan(buildTest(t, 1), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Stopped != "" {
		t.Errorf("default run degraded: partial=%v stopped=%q", res.Partial, res.Stopped)
	}
}

// --- fault injection: no input or internal failure may crash the process ---

func TestParseCircuitRecoversInjectedPanic(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.NetlistLine, PanicValue: "parser bug"})
	_, err := ParseCircuit("circuit c\nnet a signal\n")
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ParseCircuit returned %v, want *PanicError", err)
	}
	if pe.Stage != "parse-circuit" || pe.Value != "parser bug" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = stage %q value %v stack %d bytes", pe.Stage, pe.Value, len(pe.Stack))
	}
}

func TestReadDesignRecoversInjectedPanic(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.DesignLine, After: 2, PanicValue: "design parser bug"})
	_, err := ParseDesign(FormatDesign(buildTest(t, 1)))
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("ParseDesign returned %v, want *PanicError", err)
	}
	if pe.Stage != "parse-design" {
		t.Errorf("stage = %q", pe.Stage)
	}
}

func TestParseErrorsInjectedAtChosenLine(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.NetlistLine, After: 2})
	_, err := ParseCircuit("circuit c\nnet a signal\nnet b power\n")
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("injected parse error lost its line: %v", err)
	}
}

func TestPlanRecoversMidAnnealPanic(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.AnnealPlateau, After: 2, PanicValue: "anneal invariant broke"})
	_, err := Plan(buildTest(t, 1), quickOpts())
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Plan returned %v, want *PanicError", err)
	}
	if pe.Stage != "plan" {
		t.Errorf("stage = %q", pe.Stage)
	}
}

// A restart that panics on a pool goroutine reports what it would on the
// plan goroutine: its own panic value, and a stack that holds the anneal
// frames where it panicked.
func TestPlanRestartPanicSameAtAnyWorkers(t *testing.T) {
	defer faultinject.Reset()
	for _, workers := range []int{1, 2} {
		faultinject.Reset()
		faultinject.Arm(faultinject.Fault{Point: faultinject.AnnealPlateau, After: 2, PanicValue: "anneal invariant broke"})
		opt := quickOpts()
		opt.Exchange.Restarts = 2
		opt.Exchange.Workers = workers
		_, err := Plan(buildTest(t, 1), opt)
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Stage != "plan" {
			t.Fatalf("workers %d: Plan returned %v, want a *PanicError from stage plan", workers, err)
		}
		if pe.Value != "anneal invariant broke" {
			t.Errorf("workers %d: Value %v, want the restart's own panic value", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "copack/internal/anneal.") {
			t.Errorf("workers %d: Stack lacks the anneal frames:\n%s", workers, pe.Stack)
		}
	}
}

func TestPlanStageFaultBecomesError(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.PlanStage, After: 3})
	_, err := Plan(buildTest(t, 1), quickOpts())
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Errorf("stage fault returned %v", err)
	}
}

func TestPlanInjectedSolverStarvationIsPartial(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.PowerIteration, After: 1, Repeat: true})
	res, err := Plan(buildTest(t, 1), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !strings.Contains(res.Stopped, "IR solver") {
		t.Errorf("injected starvation: partial=%v stopped=%q", res.Partial, res.Stopped)
	}
}

func TestPlanMidAnnealFaultIsPartial(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.AnnealPlateau, After: 3})
	p := buildTest(t, 1)
	res, err := Plan(p, quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || !strings.Contains(res.Stopped, "exchange") {
		t.Errorf("mid-anneal fault: partial=%v stopped=%q", res.Partial, res.Stopped)
	}
	if err := CheckMonotonic(p, res.Assignment); err != nil {
		t.Errorf("partial assignment not legal: %v", err)
	}
}
