package service

import (
	"encoding/json"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestRequestBodyCapOverHTTP locks down the MaxBytesReader wiring on the
// plan, sweep and shard entry points: a body over the cap answers a typed
// 413 with the service's JSON error shape, and a body at the cap still
// works.
func TestRequestBodyCapOverHTTP(t *testing.T) {
	design := testDesign(t, 24, 1)
	valid, err := json.Marshal(PlanRequest{Design: design,
		Options: RequestOptions{SkipExchange: true}})
	if err != nil {
		t.Fatal(err)
	}
	// Self-sizing cap: the valid body fits with headroom, the oversized
	// one cannot — no magic byte counts to go stale.
	capBytes := int64(len(valid) + 64)
	srv := newTestServer(t, Config{Workers: 1, MaxBodyBytes: capBytes})
	oversized := `{"design": "` + strings.Repeat("x", int(capBytes)+128) + `"}`

	cases := []struct {
		name, path, body string
		wantStatus       int
	}{
		{"plan fits", "/plan", string(valid), http.StatusOK},
		{"plan oversized", "/plan", oversized, http.StatusRequestEntityTooLarge},
		{"jobs fits", "/jobs", string(valid), http.StatusAccepted},
		{"jobs oversized", "/jobs", oversized, http.StatusRequestEntityTooLarge},
		{"sweep oversized", "/sweeps", oversized, http.StatusRequestEntityTooLarge},
		{"shard oversized", "/sweeps/shard", oversized, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, err := http.Post(srv.ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.wantStatus)
			}
			if c.wantStatus != http.StatusRequestEntityTooLarge {
				return
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("413 Content-Type %q", ct)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatalf("413 body is not the JSON error shape: %v", err)
			}
			if !strings.Contains(e.Error, "bytes") {
				t.Errorf("413 error %q does not name the byte cap", e.Error)
			}
		})
	}
}

// TestRetryAfterScalesWithQueueDepth checks the 429 hint grows with queue
// pressure: base at idle, 5× base when the queue is full.
func TestRetryAfterScalesWithQueueDepth(t *testing.T) {
	s := &Server{cfg: Config{QueueDepth: 8}.withDefaults(), lim: limits{retryAfter: 2 * time.Second}}
	s.queue = make(chan func(), s.cfg.QueueDepth)

	fill := func(n int) {
		for len(s.queue) > 0 {
			<-s.queue
		}
		for i := 0; i < n; i++ {
			s.queue <- func() {}
		}
	}
	cases := []struct {
		queued int
		want   string
	}{
		{0, "2"},  // idle: the base
		{4, "6"},  // half full: base·3
		{8, "10"}, // full: base·5
	}
	for _, c := range cases {
		fill(c.queued)
		if got := s.retryAfterSeconds(); got != c.want {
			t.Errorf("queued %d: Retry-After %s, want %s", c.queued, got, c.want)
		}
	}

	// Sub-second bases round up to 1 so the header is never "0".
	s2 := &Server{cfg: Config{QueueDepth: 8}.withDefaults(), lim: limits{retryAfter: 100 * time.Millisecond}}
	s2.queue = make(chan func(), s2.cfg.QueueDepth)
	if got := s2.retryAfterSeconds(); got != "1" {
		t.Errorf("sub-second base: Retry-After %s, want 1", got)
	}
}

// TestNodeIDPrefixesJobIDs checks every job registration path — queued
// plan, cache-hit plan, sweep — stamps the configured node prefix, and
// that standalone servers keep the bare form.
func TestNodeIDPrefixesJobIDs(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1, NodeID: "alpha"})
	design := testDesign(t, 24, 2)
	body, _ := json.Marshal(PlanRequest{Design: design,
		Options: RequestOptions{SkipExchange: true}})

	submit := func() string {
		resp, err := http.Post(srv.ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		var sub struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatal(err)
		}
		return sub.ID
	}

	first := submit()
	if !strings.HasPrefix(first, "alpha-j") {
		t.Fatalf("job id %q lacks the alpha- prefix", first)
	}
	// Wait for it to finish so the second submit takes the cache-hit
	// (born-done) registration path — it must be prefixed the same way.
	srv.awaitJob(t, first)
	second := submit()
	if !strings.HasPrefix(second, "alpha-j") {
		t.Errorf("cache-hit job id %q lacks the alpha- prefix", second)
	}
	sweepID := regexp.MustCompile(`^(alpha-)?s\d{8}$`)
	if id := submitSweep(t, srv, sweepBody("table2", []int64{1}, 2)); !sweepID.MatchString(id) || !strings.HasPrefix(id, "alpha-") {
		t.Errorf("sweep id %q, want alpha-sNNNNNNNN", id)
	}

	plain := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(plain.ts.URL+"/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "j") || strings.Contains(sub.ID, "-") {
		t.Errorf("standalone job id %q, want bare jNNNNNNNN", sub.ID)
	}
	if id := submitSweep(t, plain, sweepBody("table2", []int64{1}, 2)); !sweepID.MatchString(id) || strings.Contains(id, "-") {
		t.Errorf("standalone sweep id %q, want bare sNNNNNNNN", id)
	}
}
