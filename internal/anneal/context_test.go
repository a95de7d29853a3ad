package anneal

import (
	"context"
	"testing"

	"copack/internal/faultinject"
)

// walker anneals a single integer and archives the best state it is asked
// to snapshot, so tests can verify the Snapshotter contract.
type walker struct {
	x        int
	snapped  int // state at the last Snapshot call
	snaps    int
	proposed int
	pend     int // x after committing the last priced move
	// stuckAfter makes every proposal infeasible once proposed exceeds
	// it (0 = never stuck) — a deterministic way to trigger stalls.
	stuckAfter int
	// onPrice, when set, runs before each proposal (cancellation hook).
	onPrice func()
}

func (w *walker) cost() float64 { return float64(w.x * w.x) }

func (w *walker) PriceMove(rng *Rand) (float64, bool) {
	if w.onPrice != nil {
		w.onPrice()
	}
	w.proposed++
	if w.stuckAfter > 0 && w.proposed > w.stuckAfter {
		return 0, false
	}
	d := 1
	if rng.Intn(2) == 0 {
		d = -1
	}
	w.pend = w.x + d
	return float64(w.pend*w.pend - w.x*w.x), true
}

func (w *walker) CommitMove() { w.x = w.pend }
func (w *walker) RejectMove() {}

func (w *walker) Snapshot() { w.snapped = w.x; w.snaps++ }

func TestStallExitPreservesSnapshotterBest(t *testing.T) {
	// The walker can move for 200 proposals, then every proposal becomes
	// infeasible, so the run must stall-exit — and the archived snapshot
	// must still be the BestCost state, which the caller can restore.
	w := &walker{x: 30, stuckAfter: 200}
	st, err := Minimize(w, w.cost(), Schedule{
		InitialTemp: 5, FinalTemp: 1e-6, Cooling: 0.9,
		MovesPerTemp: 50, StallPlateaus: 2,
	}, NewRand(11))
	if err != nil {
		t.Fatal(err)
	}
	if st.Interrupted {
		t.Fatal("uncancelled run reported Interrupted")
	}
	if want := st.Plateaus; want >= 100 {
		t.Errorf("run did not stall-exit (%d plateaus)", want)
	}
	if got := float64(w.snapped * w.snapped); got != st.BestCost {
		t.Errorf("snapshot state cost %v != BestCost %v", got, st.BestCost)
	}
	if w.snaps == 0 {
		t.Error("Snapshot never called")
	}
	// Restoring the snapshot recovers the best state even though the
	// final state may be worse.
	w.x = w.snapped
	if w.cost() != st.BestCost {
		t.Errorf("restored cost %v != BestCost %v", w.cost(), st.BestCost)
	}
}

func TestSinglePlateauSchedule(t *testing.T) {
	// InitialTemp == FinalTemp is a legal degenerate schedule: exactly
	// one plateau runs (zero further cooling steps).
	w := &walker{x: 3}
	st, err := Minimize(w, w.cost(), Schedule{
		InitialTemp: 1, FinalTemp: 1, Cooling: 0.5, MovesPerTemp: 10,
	}, NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Plateaus != 1 {
		t.Errorf("Plateaus = %d, want 1", st.Plateaus)
	}
	if st.Proposed != 10 {
		t.Errorf("Proposed = %d, want 10", st.Proposed)
	}
}

func TestNoFeasibleMoveLeavesStateUntouched(t *testing.T) {
	// A schedule whose every proposal is infeasible ("zero-move run")
	// must leave cost, state and the initial snapshot intact.
	w := &walker{x: 7, stuckAfter: 1, proposed: 1} // past stuckAfter: all proposals infeasible
	st, err := Minimize(w, w.cost(), Schedule{
		InitialTemp: 1, FinalTemp: 0.5, Cooling: 0.9, MovesPerTemp: 8,
	}, NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	if w.x != 7 || st.FinalCost != 49 || st.BestCost != 49 {
		t.Errorf("zero-move run mutated state: x=%d stats=%+v", w.x, st)
	}
	if st.Accepted != 0 || st.Proposed != 0 || st.Infeasible == 0 {
		t.Errorf("inconsistent stats %+v", st)
	}
	if w.snapped != 7 || w.snaps != 1 {
		t.Errorf("initial snapshot wrong: snapped=%d snaps=%d", w.snapped, w.snaps)
	}
}

func TestCancellationMidPlateauLeavesConsistentStats(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &walker{x: 50}
	w.onPrice = func() {
		if w.proposed == 100 {
			cancel()
		}
	}
	st, err := MinimizeContext(ctx, w, w.cost(), Schedule{
		InitialTemp: 2, FinalTemp: 1e-9, Cooling: 0.95, MovesPerTemp: 100000,
	}, NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Interrupted {
		t.Fatal("cancelled run not marked Interrupted")
	}
	if st.Stopped != context.Canceled.Error() {
		t.Errorf("Stopped = %q", st.Stopped)
	}
	// The engine checks every checkEvery moves: the run must stop within
	// one check window of the cancellation, still inside plateau 1.
	if st.Plateaus != 1 {
		t.Errorf("Plateaus = %d, want 1 (mid-plateau stop)", st.Plateaus)
	}
	if w.proposed > 100+checkEvery {
		t.Errorf("ran %d proposals after cancellation", w.proposed-100)
	}
	// Stats must describe exactly what happened to the target.
	if st.Proposed+st.Infeasible != w.proposed {
		t.Errorf("Proposed+Infeasible = %d, target saw %d", st.Proposed+st.Infeasible, w.proposed)
	}
	if got := float64(w.x * w.x); got != st.FinalCost {
		t.Errorf("FinalCost %v != state cost %v", st.FinalCost, got)
	}
	if st.BestCost > st.FinalCost {
		t.Errorf("BestCost %v > FinalCost %v", st.BestCost, st.FinalCost)
	}
	if got := float64(w.snapped * w.snapped); got != st.BestCost {
		t.Errorf("snapshot cost %v != BestCost %v", got, st.BestCost)
	}
}

func TestAlreadyCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w := &walker{x: 5}
	st, err := MinimizeContext(ctx, w, w.cost(), Schedule{}, NewRand(4))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Interrupted || st.Proposed != 0 || st.Plateaus != 0 {
		t.Errorf("stats = %+v, want immediate interrupt", st)
	}
	if st.FinalCost != 25 || st.BestCost != 25 {
		t.Errorf("costs moved: %+v", st)
	}
	// The initial snapshot still ran: best-so-far is the initial state.
	if w.snaps != 1 {
		t.Errorf("snaps = %d, want 1", w.snaps)
	}
}

func TestInjectedFaultInterruptsPlateau(t *testing.T) {
	defer faultinject.Reset()
	faultinject.Reset()
	faultinject.Arm(faultinject.Fault{Point: faultinject.AnnealPlateau, After: 3})
	w := &walker{x: 20}
	st, err := Minimize(w, w.cost(), Schedule{
		InitialTemp: 1, FinalTemp: 1e-6, Cooling: 0.9, MovesPerTemp: 10,
	}, NewRand(5))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Interrupted {
		t.Fatal("injected fault did not interrupt")
	}
	if st.Plateaus != 2 {
		t.Errorf("Plateaus = %d, want 2 (fault fired entering the 3rd)", st.Plateaus)
	}
	if st.Stopped != faultinject.ErrInjected.Error() {
		t.Errorf("Stopped = %q", st.Stopped)
	}
}

func TestUncancelledContextRunMatchesMinimize(t *testing.T) {
	run := func(viaCtx bool) (Stats, int) {
		w := &walker{x: 12}
		s := Schedule{InitialTemp: 3, FinalTemp: 1e-3, Cooling: 0.9, MovesPerTemp: 40}
		rng := NewRand(9)
		var st Stats
		var err error
		if viaCtx {
			st, err = MinimizeContext(context.Background(), w, w.cost(), s, rng)
		} else {
			st, err = Minimize(w, w.cost(), s, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		return st, w.x
	}
	s1, x1 := run(false)
	s2, x2 := run(true)
	if s1 != s2 || x1 != x2 {
		t.Errorf("Minimize and MinimizeContext diverge: %+v/%d vs %+v/%d", s1, x1, s2, x2)
	}
}
