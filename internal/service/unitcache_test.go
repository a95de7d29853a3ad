package service

import (
	"bytes"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// awaitSweepBody polls a sweep to a terminal state and returns its result
// body, failing unless the sweep is done.
func awaitSweepBody(t *testing.T, s *testServer, id string) []byte {
	t.Helper()
	if state, data := pollSweepState(t, s, id); state != JobDone {
		t.Fatalf("sweep %s ended %s: %s", id, state, data)
	}
	resp, body := s.get(t, "/sweeps/"+id+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result %s: %d: %s", id, resp.StatusCode, body)
	}
	return body
}

// goldenSweep computes a sweep on a server whose caches are disabled, so
// every unit is computed: the byte-identity oracle for cached answers.
func goldenSweep(t *testing.T, body string) []byte {
	t.Helper()
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheEntries: -1, SweepHeartbeat: time.Hour})
	return awaitSweepBody(t, s, submitSweep(t, s, body))
}

// TestSweepResubmissionBypassesQueue holds every queue worker inside
// testHookJobStart and resubmits a finished sweep: it completes with the
// golden bytes, all units from the unit cache, so the hits never touched
// the queue.
func TestSweepResubmissionBypassesQueue(t *testing.T) {
	body := sweepBody("table2", []int64{1, 2, 3}, 2)
	golden := goldenSweep(t, body)

	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, SweepHeartbeat: time.Hour})
	var hold atomic.Bool
	started, gate := make(chan struct{}, 2), make(chan struct{})
	s.svc.testHookJobStart = func() {
		if hold.Load() {
			started <- struct{}{}
			<-gate
		}
	}
	if got := awaitSweepBody(t, s, submitSweep(t, s, body)); !bytes.Equal(got, golden) {
		t.Fatal("computed sweep differs from the golden body")
	}

	// Park both workers on async plans.
	hold.Store(true)
	plan := planBody(t, testDesign(t, 24, 7), RequestOptions{Seed: 5, SkipExchange: true})
	for i := 0; i < 2; i++ {
		if resp, data := s.post(t, "/jobs", plan); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("parking plan %d: %d: %s", i, resp.StatusCode, data)
		}
		<-started
	}
	defer close(gate)

	got := awaitSweepBody(t, s, submitSweep(t, s, body))
	if !bytes.Equal(got, golden) {
		t.Errorf("resubmitted sweep differs from the golden body:\n got %s\nwant %s", got, golden)
	}
	c := s.metricsCounters(t)
	if c["sweep/units/cached"] != 3 || c["sweep/units/local"] != 3 || c["sweep/unitcache/hits"] != 3 {
		t.Errorf("units cached %d, local %d, unitcache hits %d; want 3, 3, 3",
			c["sweep/units/cached"], c["sweep/units/local"], c["sweep/unitcache/hits"])
	}
}

// TestSweepUnitCacheDisabled: with CacheEntries -1 the unit cache is off
// like the other three LRUs, so a resubmission computes every unit again.
func TestSweepUnitCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheEntries: -1, SweepHeartbeat: time.Hour})
	body := sweepBody("table2", []int64{1, 2}, 2)
	first := awaitSweepBody(t, s, submitSweep(t, s, body))
	if again := awaitSweepBody(t, s, submitSweep(t, s, body)); !bytes.Equal(again, first) {
		t.Error("recomputed sweep differs from the first run")
	}
	c := s.metricsCounters(t)
	if c["sweep/units/local"] != 4 || c["sweep/units/cached"] != 0 || c["sweep/unitcache/hits"] != 0 {
		t.Errorf("units local %d, cached %d, unitcache hits %d; want 4, 0, 0",
			c["sweep/units/local"], c["sweep/units/cached"], c["sweep/unitcache/hits"])
	}
	if c["sweep/unitcache/misses"] != 4 {
		t.Errorf("unitcache misses %d, want 4", c["sweep/unitcache/misses"])
	}
}

// TestConcurrentIdenticalSweepsMatchGolden submits the same sweep twice
// at once. There is no in-flight dedupe, so both may compute a unit, and
// both may store it; either way both bodies are the golden bytes. Run it
// under -race -count=10 to exercise the shared cache.
func TestConcurrentIdenticalSweepsMatchGolden(t *testing.T) {
	body := sweepBody("table2", []int64{1, 2, 3}, 2)
	golden := goldenSweep(t, body)

	s := newTestServer(t, Config{Workers: 2, QueueDepth: 16, SweepHeartbeat: time.Hour})
	// Both coordinators run at once on the server; awaiting them in turn
	// does not serialize them.
	ids := []string{submitSweep(t, s, body), submitSweep(t, s, body)}
	for _, id := range ids {
		if got := awaitSweepBody(t, s, id); !bytes.Equal(got, golden) {
			t.Errorf("sweep %s differs from the golden body", id)
		}
	}
	c := s.metricsCounters(t)
	if got := c["sweep/units/local"] + c["sweep/units/cached"]; got != 6 {
		t.Errorf("units local %d + cached %d = %d, want 6", c["sweep/units/local"], c["sweep/units/cached"], got)
	}
}
