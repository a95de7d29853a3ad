package service

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"copack/internal/sweep"
)

// wait blocks until the job is terminal or ctx expires. HTTP consumers
// poll or stream instead; tests block on the wake channel.
func (j *job) wait(ctx context.Context) error {
	for {
		_, changed, terminal := j.eventsSince(0)
		if terminal {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// submitSpec submits a sweep spec straight to the server, past the HTTP
// validator, and returns its job.
func submitSpec(t *testing.T, svc *Server, sp *sweep.Spec) *job {
	t.Helper()
	j := newJob(svc.baseCtx, sweepJob)
	j.sweep = sp
	if err := svc.submit(j); err != nil {
		t.Fatal(err)
	}
	return j
}

func awaitTerminal(t *testing.T, j *job) jobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.wait(ctx); err != nil {
		t.Fatalf("job %s did not finish: %v", j.id, err)
	}
	return j.snapshot()
}

// gateWorkers holds every worker at the top of its next job until the
// returned release is called (at the latest when the test ends).
func gateWorkers(t *testing.T, svc *Server) (release func()) {
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	svc.testHookJobStart = func() { <-gate }
	return release
}

// TestSweepEventLogShape pins the event log of a done, a failed and a
// canceled sweep: seq is 1-based, units_total rides every entry,
// progress ticks climb by one and name a seed and a node, and exactly one
// terminal event closes the log, carrying the job's own error.
func TestSweepEventLogShape(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, SweepHeartbeat: time.Hour})
	spec := func(kind sweep.Kind, seeds ...int64) *sweep.Spec {
		if kind != sweep.KindTable2 {
			return &sweep.Spec{Kind: kind, Seeds: seeds}
		}
		sp, err := (&sweep.Request{Kind: string(kind), Seeds: seeds, RandomTries: 2}).Normalize(0)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}

	done := submitSpec(t, s.svc, spec(sweep.KindTable2, 1, 2, 3))
	awaitTerminal(t, done)
	failed := submitSpec(t, s.svc, spec("nope", 1, 2))
	awaitTerminal(t, failed)
	release := gateWorkers(t, s.svc)
	canceled := submitSpec(t, s.svc, spec(sweep.KindTable2, 4, 5))
	canceled.requestCancel(errCanceledByClient)
	release()
	awaitTerminal(t, canceled)

	for _, tc := range []struct {
		name  string
		j     *job
		state JobState
		ticks int
		err   string
	}{
		{"done", done, JobDone, 3, ""},
		{"failed", failed, JobFailed, 0, ""},
		{"canceled", canceled, JobCanceled, 0, "canceled by client"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			view := tc.j.snapshot()
			if view.State != tc.state {
				t.Fatalf("state %s (%s), want %s", view.State, view.ErrMsg, tc.state)
			}
			if tc.err != "" && view.ErrMsg != tc.err {
				t.Errorf("reason %q, want %q", view.ErrMsg, tc.err)
			}
			events, _, terminal := tc.j.eventsSince(0)
			if !terminal {
				t.Fatal("log not terminal")
			}
			ticks, terminals := 0, 0
			for i, e := range events {
				if e.Seq != i+1 {
					t.Errorf("event %d has seq %d", i, e.Seq)
				}
				if e.UnitsTotal != view.UnitsTotal || e.UnitsTotal == 0 {
					t.Errorf("event %d units_total %d, want %d", i, e.UnitsTotal, view.UnitsTotal)
				}
				switch e.Type {
				case EventProgress:
					ticks++
					if e.UnitsDone != ticks {
						t.Errorf("progress tick %d reports units_done %d", ticks, e.UnitsDone)
					}
					if e.Seed == nil || e.Node == "" {
						t.Errorf("progress event %d missing seed/node", i)
					}
				case EventDone, EventFailed, EventCanceled:
					terminals++
					if i != len(events)-1 {
						t.Errorf("terminal event at %d of %d", i, len(events))
					}
					if e.Type != EventType(view.State) || e.Error != view.ErrMsg {
						t.Errorf("terminal event %+v, want %s with error %q", e, view.State, view.ErrMsg)
					}
				}
			}
			if terminals != 1 {
				t.Errorf("%d terminal events, want exactly 1", terminals)
			}
			if ticks != tc.ticks {
				t.Errorf("%d progress ticks, want %d", ticks, tc.ticks)
			}
		})
	}
}

// TestSweepUnitRefusedByClosingQueueEndsCanceled opens the window
// Shutdown leaves between closing the queue and canceling the base
// context: a unit offered then is refused with sweep.ErrDraining, and the
// sweep must end canceled by the drain, not failed.
func TestSweepUnitRefusedByClosingQueueEndsCanceled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, SweepHeartbeat: time.Hour})
	started := make(chan struct{}, 4)
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	s.svc.testHookJobStart = func() {
		started <- struct{}{}
		<-gate
	}

	// One plan holds the worker; once it does, a second fills the queue,
	// so the sweep's unit keeps being offered and refused as full.
	design := testDesign(t, 16, 3)
	for seed := int64(1); seed <= 2; seed++ {
		if resp, data := s.post(t, "/jobs", planBody(t, design, RequestOptions{Seed: seed, SkipExchange: true})); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit plan %d: %d: %s", seed, resp.StatusCode, data)
		}
		if seed == 1 {
			<-started
		}
	}
	sp, err := (&sweep.Request{Kind: "table2", Seeds: []int64{1}, RandomTries: 2}).Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	j := submitSpec(t, s.svc, sp)

	// Close the queue as Shutdown does, but leave the base context live.
	s.svc.mu.Lock()
	s.svc.closed = true
	close(s.svc.queue)
	s.svc.mu.Unlock()

	view := awaitTerminal(t, j)
	if s.svc.baseCtx.Err() != nil {
		t.Fatal("base context canceled: the window under test is closed")
	}
	if view.State != JobCanceled || view.ErrMsg != "server draining" {
		t.Fatalf("sweep ended %s (%q), want canceled (\"server draining\")", view.State, view.ErrMsg)
	}
}

// TestJobAndSweepRoutesDoNotCross pins the one registry's kind check: a
// sweep ID is unknown under /jobs and a plan ID unknown under /sweeps,
// for every verb.
func TestJobAndSweepRoutesDoNotCross(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SweepHeartbeat: time.Hour})
	planID, _ := s.submitAndAwait(t, planBody(t, testDesign(t, 16, 3), RequestOptions{Seed: 1, SkipExchange: true}))
	sweepID := submitSweep(t, s, sweepBody("table2", []int64{1}, 2))
	pollSweepState(t, s, sweepID)

	for _, tc := range []struct{ method, path string }{
		{http.MethodGet, "/jobs/" + sweepID},
		{http.MethodGet, "/jobs/" + sweepID + "/result"},
		{http.MethodDelete, "/jobs/" + sweepID},
		{http.MethodGet, "/sweeps/" + planID},
		{http.MethodGet, "/sweeps/" + planID + "/result"},
		{http.MethodGet, "/sweeps/" + planID + "/events"},
		{http.MethodDelete, "/sweeps/" + planID},
	} {
		req, _ := http.NewRequest(tc.method, s.ts.URL+tc.path, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", tc.method, tc.path, resp.StatusCode)
		}
	}
	// Each ID still answers under its own routes.
	for _, path := range []string{"/jobs/" + planID, "/sweeps/" + sweepID} {
		if resp, _ := s.get(t, path); resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", path, resp.StatusCode)
		}
	}
}

// TestPlansAndSweepsShareOneRetentionList finishes plans and sweeps in
// turn while 3 are retained and checks they age out of one list,
// oldest first.
func TestPlansAndSweepsShareOneRetentionList(t *testing.T) {
	s := newTestServerLimits(t, Config{Workers: 1, QueueDepth: 8, SweepHeartbeat: time.Hour},
		limits{jobsRetained: 3, retryAfter: time.Second})
	design := testDesign(t, 16, 3)
	var paths []string // status path of each finished job, in finish order
	for i := int64(1); i <= 5; i++ {
		var id string
		if i%2 == 1 {
			id, _ = s.submitAndAwait(t, planBody(t, design, RequestOptions{Seed: i, SkipExchange: true}))
			paths = append(paths, "/jobs/"+id)
		} else {
			id = submitSweep(t, s, sweepBody("table2", []int64{i}, 2))
			pollSweepState(t, s, id)
			paths = append(paths, "/sweeps/"+id)
		}
		// A job is visibly terminal a moment before it enters the list.
		waitFor(t, func() bool {
			s.svc.mu.Lock()
			defer s.svc.mu.Unlock()
			return len(s.svc.finished) > 0 && s.svc.finished[len(s.svc.finished)-1] == id
		})
		for k, path := range paths {
			want := http.StatusOK
			if k < len(paths)-3 {
				want = http.StatusNotFound
			}
			if resp, _ := s.get(t, path); resp.StatusCode != want {
				t.Errorf("after %d finished jobs, GET %s: %d, want %d", len(paths), path, resp.StatusCode, want)
			}
		}
	}
}
