package copack

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// Exchange.Workers must only change the wall clock: a multi-start plan is
// byte-identical whether the restarts run on one worker or four.
func TestPlanWorkersDeterministic(t *testing.T) {
	opts := func(workers int) Options {
		o := quickOpts()
		o.Seed = 2
		o.Exchange.Restarts = 3
		o.Exchange.Workers = workers
		return o
	}
	var ref *Result
	var refPlan string
	for _, workers := range []int{1, 4} {
		p := buildTest(t, 4)
		res, err := Plan(p, opts(workers))
		if err != nil {
			t.Fatal(err)
		}
		if res.Partial {
			t.Fatalf("workers=%d: uncancelled plan marked Partial (%s)", workers, res.Stopped)
		}
		plan := formatAssignment(t, p, res.Assignment)
		if ref == nil {
			ref, refPlan = res, plan
			continue
		}
		if plan != refPlan {
			t.Errorf("workers=%d: plan differs from workers=1", workers)
		}
		if !reflect.DeepEqual(res.FinalStats, ref.FinalStats) {
			t.Errorf("workers=%d: final stats %+v vs %+v", workers, res.FinalStats, ref.FinalStats)
		}
		if res.IRDropBefore != ref.IRDropBefore || res.IRDropAfter != ref.IRDropAfter {
			t.Errorf("workers=%d: IR drops %g/%g vs %g/%g",
				workers, res.IRDropBefore, res.IRDropAfter, ref.IRDropBefore, ref.IRDropAfter)
		}
		if res.Exchange.Restart != ref.Exchange.Restart ||
			!reflect.DeepEqual(res.Exchange.RestartCosts, ref.Exchange.RestartCosts) {
			t.Errorf("workers=%d: winner restart %d %v vs %d %v", workers,
				res.Exchange.Restart, res.Exchange.RestartCosts,
				ref.Exchange.Restart, ref.Exchange.RestartCosts)
		}
		if res.OmegaAfter != ref.OmegaAfter {
			t.Errorf("workers=%d: omega after %d vs %d", workers, res.OmegaAfter, ref.OmegaAfter)
		}
	}
}

// A deadline cutting a parallel multi-start plan still yields the Partial
// contract: legal monotonic assignment, full report, Stopped reason.
func TestPlanWorkersDeadlineStaysPartialAndLegal(t *testing.T) {
	p, err := BuildCircuit(Table1Circuits()[4], BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opt := slowOpts()
	opt.Exchange.Restarts = 3
	opt.Exchange.Workers = 4
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	res, err := PlanContext(ctx, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial || res.Stopped == "" {
		t.Fatalf("deadline run not Partial with a reason: partial=%v stopped=%q", res.Partial, res.Stopped)
	}
	if err := CheckMonotonic(p, res.Assignment); err != nil {
		t.Errorf("partial assignment not monotonic-legal: %v", err)
	}
	if res.Exchange != nil && len(res.Exchange.RestartCosts) != 3 {
		t.Errorf("interrupted multi-start reported %d restart costs, want 3", len(res.Exchange.RestartCosts))
	}
	if res.FinalStats == nil || res.FinalStats.MaxDensity == 0 {
		t.Error("partial result lacks routing stats")
	}
}
