package exchange

import (
	"context"
	"reflect"
	"testing"
	"time"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/core"
	"copack/internal/gen"
)

// Multi-start output must be byte-identical for any worker count: the same
// restarts run, the same winner is picked, the same order comes back. That
// holds for the cold restarts of ψ = 1 and for the restarts the start rule
// warm-starts from the MCMF order at ψ = 4 alike.
func TestMultiStartDeterministicAcrossWorkers(t *testing.T) {
	runs := []struct {
		name string
		opt  Options
	}{
		{"restarts4", Options{Seed: 5, Restarts: 4}},
	}
	for _, tiers := range []int{1, 4} {
		p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 2, Tiers: tiers})
		initial, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			var ref *Result
			for _, workers := range []int{1, 4} {
				opt := r.opt
				opt.Workers = workers
				res, err := Run(p, initial, opt)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.RestartCosts) != 4 {
					t.Fatalf("%s tiers=%d workers=%d: %d restart costs", r.name, tiers, workers, len(res.RestartCosts))
				}
				if ref == nil {
					ref = res
					continue
				}
				if !reflect.DeepEqual(res.Assignment.Slots, ref.Assignment.Slots) {
					t.Errorf("%s tiers=%d: assignment differs between workers 1 and %d", r.name, tiers, workers)
				}
				if res.Restart != ref.Restart {
					t.Errorf("%s tiers=%d: winner restart %d vs %d", r.name, tiers, res.Restart, ref.Restart)
				}
				if !reflect.DeepEqual(res.RestartCosts, ref.RestartCosts) {
					t.Errorf("%s tiers=%d: restart costs differ: %v vs %v", r.name, tiers, res.RestartCosts, ref.RestartCosts)
				}
				if res.Stats != ref.Stats {
					t.Errorf("%s tiers=%d: winner stats differ: %+v vs %+v", r.name, tiers, res.Stats, ref.Stats)
				}
				if res.After != ref.After {
					t.Errorf("%s tiers=%d: after metrics differ: %+v vs %+v", r.name, tiers, res.After, ref.After)
				}
			}
		}
	}
}

// Restart 0 of a multi-start run is the single-start run: its recorded cost
// must match, and the selected winner can only improve on it.
func TestMultiStartNeverWorseThanSingle(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[1], gen.Options{Seed: 3})
	initial, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(p, initial, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(p, initial, Options{Seed: 9, Restarts: 6})
	if err != nil {
		t.Fatal(err)
	}
	if single.Restart != 0 || len(single.RestartCosts) != 1 {
		t.Errorf("single run reports restart %d of %d", single.Restart, len(single.RestartCosts))
	}
	if multi.RestartCosts[0] != single.RestartCosts[0] {
		t.Errorf("restart 0 cost drifted: %v vs single %v", multi.RestartCosts[0], single.RestartCosts[0])
	}
	if !reflect.DeepEqual(single.Assignment.Slots, multi.Assignment.Slots) &&
		multi.RestartCosts[multi.Restart] > multi.RestartCosts[0] {
		t.Errorf("multi-start picked a worse restart: %v (restart %d) vs %v",
			multi.RestartCosts[multi.Restart], multi.Restart, multi.RestartCosts[0])
	}
	best := multi.RestartCosts[multi.Restart]
	for k, c := range multi.RestartCosts {
		if c < best {
			t.Errorf("restart %d cost %v beats the declared winner %v", k, c, best)
		}
	}
}

// A context cancelled before the anneals start must still return a full,
// legal result: every restart bails out immediately, no ground is lost, and
// the winner is the restarts' start order (at ψ = 4, the warm one).
func TestMultiStartCancelledBeforeStart(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 4, Tiers: 4})
	initial, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, p, initial, Options{Seed: 1, Restarts: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Error("cancelled multi-start not marked Interrupted")
	}
	if !res.Legal {
		t.Error("cancelled multi-start returned an illegal order")
	}
	if err := core.CheckMonotonic(p, res.Assignment); err != nil {
		t.Errorf("cancelled assignment not monotonic: %v", err)
	}
	if len(res.RestartCosts) != 4 {
		t.Fatalf("%d restart costs, want 4 (no restart may be skipped)", len(res.RestartCosts))
	}
	// Never lose ground: no restart scores below the declared winner.
	for k, c := range res.RestartCosts {
		if c > res.RestartCosts[res.Restart] {
			continue
		}
		if c < res.RestartCosts[res.Restart] {
			t.Errorf("restart %d (%v) beats declared winner (%v)", k, c, res.RestartCosts[res.Restart])
		}
	}
}

// A deadline mid-anneal yields a legal, never-worse partial result no
// matter how many restarts and workers are in flight.
func TestMultiStartDeadlineMidRunStaysLegalAndMonotonic(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[3], gen.Options{Seed: 5})
	initial, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Score the initial order once: the partial result must never be
	// worse than this.
	probe := newState(p, initial, Options{Lambda: 1, Rho: 1, Phi: 0.4}, nil)
	cost0 := eq3Terms(p, probe).Total

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	res, err := RunContext(ctx, p, initial, Options{
		Seed:     2,
		Restarts: 3,
		Workers:  3,
		Schedule: anneal.Schedule{InitialTemp: 1, FinalTemp: 1e-9, Cooling: 0.9999, MovesPerTemp: 100000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted {
		t.Fatal("near-infinite schedule finished under a 25ms deadline?")
	}
	if !res.Legal {
		t.Error("interrupted multi-start returned an illegal order")
	}
	if err := core.CheckMonotonic(p, res.Assignment); err != nil {
		t.Errorf("interrupted assignment not monotonic: %v", err)
	}
	if best := res.RestartCosts[res.Restart]; best > cost0+1e-9 {
		t.Errorf("partial result lost ground: cost %v vs initial %v", best, cost0)
	}
}
