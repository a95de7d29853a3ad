package route

import (
	"context"
	"reflect"
	"testing"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/gen"
)

func TestImproveViasAllContextCancelled(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[1], gen.Options{Seed: 2})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Evaluate(p, a)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	plans, st, stopped, err := ImproveViasAllContext(ctx, p, a, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("cancelled improvement not reported as stopped")
	}
	// No pass ran: every plan is the default and the stats equal the
	// plain evaluation — complete, package-wide, and never worse.
	for side, plan := range plans {
		if len(plan) != 0 {
			t.Errorf("side %d: cancelled run produced a non-default plan", side)
		}
	}
	if st.MaxDensity != base.MaxDensity {
		t.Errorf("cancelled stats density %d != base %d", st.MaxDensity, base.MaxDensity)
	}
}

func TestImproveViasAllContextUncancelledMatches(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[1], gen.Options{Seed: 2})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plans, st, stopped, err := ImproveViasAllContext(context.Background(), p, a, 8)
	if err != nil {
		t.Fatal(err)
	}
	if stopped {
		t.Error("uncancelled run reported stopped")
	}
	for _, side := range bga.Sides() {
		plan, qs, err := ImproveVias(p, side, a.Slots[side], 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plan, plans[side]) || !reflect.DeepEqual(qs, st.Quadrants[side]) {
			t.Errorf("side %v: diverges from ImproveVias", side)
		}
	}
}
