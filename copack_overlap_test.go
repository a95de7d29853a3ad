package copack

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"copack/internal/faultinject"
)

// A plan solves ir-before and runs its exchange as the two items of one
// pool: in pipeline order on the caller at GOMAXPROCS 1, side by side at 2.
// These tests run both schedules and hold them to one report.

// atProcs runs f at GOMAXPROCS 1 and then 2, and restores the setting.
func atProcs(t *testing.T, f func(procs int)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// The phase events come in pipeline order, and the counters and gauges
// are the same whichever schedule ran.
func TestOverlapPhasesAndMetricsAcrossCPUs(t *testing.T) {
	var ref *MetricsSnapshot
	atProcs(t, func(procs int) {
		col := NewMetricsCollector()
		opt := quickOpts()
		opt.Recorder = col
		if _, err := Plan(buildTest(t, 4), opt); err != nil {
			t.Fatal(err)
		}
		snap := col.Snapshot()
		var names []string
		for _, ph := range snap.Phases {
			names = append(names, ph.Name)
		}
		if got := strings.Join(names, " "); got != "assign ir-before exchange ir-after" {
			t.Errorf("GOMAXPROCS %d: phases %q, want the pipeline order", procs, got)
		}
		if ref == nil {
			ref = &snap
			return
		}
		if !reflect.DeepEqual(snap.Counters, ref.Counters) {
			t.Errorf("GOMAXPROCS %d: counters differ from GOMAXPROCS 1:\n%v\n%v", procs, snap.Counters, ref.Counters)
		}
		if !reflect.DeepEqual(snap.Gauges, ref.Gauges) {
			t.Errorf("GOMAXPROCS %d: gauges differ from GOMAXPROCS 1:\n%v\n%v", procs, snap.Gauges, ref.Gauges)
		}
	})
}

// A panic in the ir-before solve comes back as a *PanicError carrying the
// solver's own value and frames, on either schedule.
func TestOverlapSolverPanicIsPanicError(t *testing.T) {
	defer faultinject.Reset()
	atProcs(t, func(procs int) {
		faultinject.Reset()
		faultinject.Arm(faultinject.Fault{Point: faultinject.PowerIteration, PanicValue: "solver invariant broke"})
		_, err := Plan(buildTest(t, 1), quickOpts())
		var pe *PanicError
		if !errors.As(err, &pe) || pe.Stage != "plan" {
			t.Fatalf("GOMAXPROCS %d: Plan returned %v, want a *PanicError from stage plan", procs, err)
		}
		if pe.Value != "solver invariant broke" {
			t.Errorf("GOMAXPROCS %d: Value %v, want the solver's panic value", procs, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "copack/internal/power.") {
			t.Errorf("GOMAXPROCS %d: Stack lacks the solver frames:\n%s", procs, pe.Stack)
		}
	})
}

// tinyPackage is a design whose package dimensions are so small that the
// default chip grid's current density overflows, so the IR solve fails
// validation while assignment and exchange still run.
func tinyPackage(t *testing.T) *Problem {
	t.Helper()
	lines := strings.Split(FormatDesign(buildTest(t, 1)), "\n")
	for i, l := range lines {
		switch {
		case strings.HasPrefix(l, "spec ball"):
			lines[i] = "spec ball 1e-160 1e-160 via 1e-160"
		case strings.HasPrefix(l, "spec finger"):
			lines[i] = "spec finger 1e-160 1e-160 1e-160"
		}
	}
	p, err := ParseDesign(strings.Join(lines, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// An ir-before error returns without waiting out the exchange: at
// GOMAXPROCS 1 the exchange never starts, and at 2 the failed solve
// cancels it. slowOpts' schedule would anneal for hours.
func TestOverlapIRBeforeErrorSkipsAnneal(t *testing.T) {
	p := tinyPackage(t)
	atProcs(t, func(procs int) {
		start := time.Now()
		_, err := Plan(p, slowOpts())
		if err == nil || !strings.Contains(err.Error(), "power:") {
			t.Fatalf("GOMAXPROCS %d: Plan returned %v, want the ir-before solver's error", procs, err)
		}
		if took := time.Since(start); took > 10*time.Second {
			t.Errorf("GOMAXPROCS %d: the failed plan took %v", procs, took)
		}
	})
}

// Stop reasons are listed in pipeline order: when ir-before and the
// exchange both stop short, Stopped names ir-before, even on the schedule
// where the exchange, cut at its first plateau, finishes first.
func TestOverlapStopReasonsInPipelineOrder(t *testing.T) {
	defer faultinject.Reset()
	atProcs(t, func(procs int) {
		for round := 0; round < 5; round++ {
			faultinject.Reset()
			faultinject.Arm(faultinject.Fault{Point: faultinject.AnnealPlateau})
			faultinject.Arm(faultinject.Fault{Point: faultinject.PowerIteration, After: 5})
			res, err := Plan(buildTest(t, 1), quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Partial || !strings.HasPrefix(res.Stopped, "ir-before: IR solver stopped after 4 iterations") {
				t.Fatalf("GOMAXPROCS %d round %d: partial %v, Stopped %q; want ir-before's reason",
					procs, round, res.Partial, res.Stopped)
			}
			if res.Exchange == nil || !res.Exchange.Interrupted {
				t.Fatalf("GOMAXPROCS %d round %d: the exchange was not cut", procs, round)
			}
		}
	})
}
