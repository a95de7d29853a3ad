package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"copack"
	"copack/internal/obs"
)

// testDesign renders a small, fast instance in the design text format.
func testDesign(t testing.TB, fingers int, seed int64) string {
	t.Helper()
	tc := copack.TestCircuit{Name: "svc", Fingers: fingers,
		BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
	p, err := copack.BuildCircuit(tc, copack.BuildOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return copack.FormatDesign(p)
}

// specServer builds a Server value for request-layer unit tests without
// starting any workers.
func specServer(maxBody int64) *Server {
	s := &Server{cfg: Config{MaxBodyBytes: maxBody, MaxBudget: 5 * time.Second}.withDefaults()}
	s.cache = newResultCache(s.cfg.CacheEntries, nil)
	s.memo = newKeyMemo(s.cfg.CacheEntries, nil)
	return s
}

func TestCacheLRUAndCounters(t *testing.T) {
	col := obs.NewCollector()
	c := newResultCache(2, col)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if body, ok := c.Get("a"); !ok || string(body) != "A" {
		t.Fatalf("get a = %q, %v", body, ok)
	}
	// "a" is now most recent; inserting "c" must evict "b".
	c.Put("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("a evicted out of LRU order")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// Re-putting an existing key must not duplicate it.
	c.Put("a", []byte("A"))
	if c.len() != 2 {
		t.Errorf("len after re-put = %d, want 2", c.len())
	}
	snap := col.Snapshot()
	if snap.Counters["cache/hits"] != 2 || snap.Counters["cache/misses"] != 2 {
		t.Errorf("hit/miss counters = %d/%d, want 2/2",
			snap.Counters["cache/hits"], snap.Counters["cache/misses"])
	}
	if snap.Counters["cache/evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters["cache/evictions"])
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1, nil)
	c.Put("k", []byte("v"))
	if _, ok := c.Get("k"); ok {
		t.Error("disabled cache returned a hit")
	}
	if c.len() != 0 {
		t.Errorf("disabled cache holds %d entries", c.len())
	}
}

func TestNormalizeOptions(t *testing.T) {
	maxBudget := 10 * time.Second
	cases := []struct {
		name string
		in   RequestOptions
		want normOptions
		ok   bool
	}{
		{"defaults", RequestOptions{}, normOptions{alg: copack.DFA, cut: 1, restarts: 1}, true},
		{"explicit defaults match", RequestOptions{Algorithm: "DFA", DFACut: 1, Restarts: 1},
			normOptions{alg: copack.DFA, cut: 1, restarts: 1}, true},
		{"uppercase ifa", RequestOptions{Algorithm: " IFA "}, normOptions{alg: copack.IFA, cut: 1, restarts: 1}, true},
		{"skip zeroes restarts", RequestOptions{SkipExchange: true, Restarts: 8},
			normOptions{alg: copack.DFA, cut: 1, skip: true, restarts: 1}, true},
		{"budget", RequestOptions{BudgetMS: 1500},
			normOptions{alg: copack.DFA, cut: 1, restarts: 1, budget: 1500 * time.Millisecond}, true},
		{"bad algorithm", RequestOptions{Algorithm: "greedy"}, normOptions{}, false},
		{"negative cut", RequestOptions{DFACut: -1}, normOptions{}, false},
		{"negative restarts", RequestOptions{Restarts: -2}, normOptions{}, false},
		{"restarts over cap", RequestOptions{Restarts: maxRestarts + 1}, normOptions{}, false},
		{"negative budget", RequestOptions{BudgetMS: -5}, normOptions{}, false},
		{"budget over cap", RequestOptions{BudgetMS: maxBudget.Milliseconds() + 1}, normOptions{}, false},
	}
	for _, c := range cases {
		got, err := c.in.normalize(maxBudget)
		if c.ok {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			} else if got != c.want {
				t.Errorf("%s: %+v, want %+v", c.name, got, c.want)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want error", c.name)
			continue
		}
		var he *httpError
		if !errors.As(err, &he) || he.status != http.StatusBadRequest {
			t.Errorf("%s: error %v is not a 400 httpError", c.name, err)
		}
	}
}

func TestCanonicalizeKeyStability(t *testing.T) {
	s := specServer(1 << 20)
	design := testDesign(t, 24, 7)

	base := &PlanRequest{Design: design, Options: RequestOptions{Seed: 3}}
	spec, err := s.canonicalize(base)
	if err != nil {
		t.Fatal(err)
	}

	// Comments, blank lines and explicit default options must not change
	// the content address.
	decorated := "# a comment\n\n" + strings.Replace(design, "\n", "\n# noise\n", 1)
	same := []*PlanRequest{
		{Design: decorated, Options: RequestOptions{Seed: 3}},
		{Design: design, Options: RequestOptions{Algorithm: "DFA", DFACut: 1, Restarts: 1, Seed: 3}},
		{Design: design, Options: RequestOptions{Algorithm: " dfa ", Seed: 3}},
	}
	for i, req := range same {
		got, err := s.canonicalize(req)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if got.key != spec.key {
			t.Errorf("variant %d: key %s != %s", i, got.key, spec.key)
		}
	}

	// Anything that changes the plan must change the key.
	different := []*PlanRequest{
		{Design: design, Options: RequestOptions{Seed: 4}},
		{Design: design, Options: RequestOptions{Seed: 3, Algorithm: "ifa"}},
		{Design: design, Options: RequestOptions{Seed: 3, SkipExchange: true}},
		{Design: design, Options: RequestOptions{Seed: 3, Restarts: 2}},
		{Design: design, Options: RequestOptions{Seed: 3, BudgetMS: 100}},
		{Design: design, Options: RequestOptions{Seed: 3, Metrics: true}},
		{Design: testDesign(t, 24, 8), Options: RequestOptions{Seed: 3}},
	}
	seen := map[string]int{spec.key: -1}
	for i, req := range different {
		got, err := s.canonicalize(req)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if prev, dup := seen[got.key]; dup {
			t.Errorf("variant %d collides with %d", i, prev)
		}
		seen[got.key] = i
	}

	// Canonicalizing the canonical text is a fixed point.
	again, err := s.canonicalize(&PlanRequest{Design: spec.canonical, Options: RequestOptions{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if again.key != spec.key || again.canonical != spec.canonical {
		t.Error("canonical text is not a canonicalization fixed point")
	}
}

func TestCanonicalizeRejectsOversizedDesign(t *testing.T) {
	s := specServer(128)
	_, err := s.canonicalize(&PlanRequest{Design: strings.Repeat("x", 256)})
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized design: %v, want 413 httpError", err)
	}
}

func TestDecodePlanRequestErrors(t *testing.T) {
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"empty", "", http.StatusBadRequest},
		{"malformed", "{design", http.StatusBadRequest},
		{"truncated", "{\"design\": \"circ", http.StatusBadRequest},
		{"wrong type", "{\"design\": 42}", http.StatusBadRequest},
		{"unknown field", "{\"design\": \"x\", \"designs\": \"y\"}", http.StatusBadRequest},
		{"trailing garbage", "{\"design\": \"x\"} {\"more\": 1}", http.StatusBadRequest},
		{"missing design", "{\"options\": {}}", http.StatusBadRequest},
		{"wrong option type", "{\"design\": \"x\", \"options\": {\"seed\": \"one\"}}", http.StatusBadRequest},
	}
	for _, c := range cases {
		_, err := decodePlanRequest([]byte(c.body))
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		var he *httpError
		if !errors.As(err, &he) || he.status != c.status {
			t.Errorf("%s: %v, want status %d", c.name, err, c.status)
		}
	}

	// A valid body decodes.
	req, err := decodePlanRequest([]byte("{\"design\": \"circuit c\", \"options\": {\"seed\": 9}}"))
	if err != nil {
		t.Fatalf("valid body rejected: %v", err)
	}
	if req.Design != "circuit c" || req.Options.Seed != 9 {
		t.Errorf("decoded %+v", req)
	}
}

func TestClassifyDesignError(t *testing.T) {
	// Parse failure → 400.
	_, err := specServer(1 << 20).canonicalize(&PlanRequest{Design: "not a design"})
	var he *httpError
	if !errors.As(err, &he) || he.status != http.StatusBadRequest {
		t.Errorf("parse failure: %v, want 400", err)
	}
	// Transport failure under ReadDesign → 502. The service never feeds
	// a raw reader today, but the mapping is part of the contract.
	_, rdErr := copack.ReadDesign(&failingReader{err: fmt.Errorf("boom")})
	mapped := classifyDesignError(rdErr)
	if !errors.As(mapped, &he) || he.status != http.StatusBadGateway {
		t.Errorf("IO failure: %v, want 502", mapped)
	}
}

// failingReader errors immediately — the transport-failure stand-in.
type failingReader struct{ err error }

func (r *failingReader) Read([]byte) (int, error) { return 0, r.err }

func TestPlanCanceledContext(t *testing.T) {
	s := specServer(1 << 20)
	spec, err := s.canonicalize(&PlanRequest{Design: testDesign(t, 24, 7)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, status, msg := s.plan(ctx, spec)
	if status != http.StatusServiceUnavailable || msg == "" {
		t.Errorf("canceled plan: status %d msg %q, want 503", status, msg)
	}
}

func TestMaxBytesReaderIntegration(t *testing.T) {
	// ReadBody must classify http.MaxBytesReader truncation as 413 before
	// anything decodes the body, and a body at the cap reads whole.
	s := specServer(64)
	for _, tc := range []struct {
		size int64
		want int
	}{{64, 0}, {65, http.StatusRequestEntityTooLarge}, {1024, http.StatusRequestEntityTooLarge}} {
		body := strings.Repeat("x", int(tc.size))
		r := httptest.NewRequest(http.MethodPost, "/plan", strings.NewReader(body))
		got, err := s.ReadBody(httptest.NewRecorder(), r)
		var he *httpError
		switch {
		case tc.want == 0 && (err != nil || string(got) != body):
			t.Errorf("%d-byte body: %d bytes read, %v; want it whole", tc.size, len(got), err)
		case tc.want != 0 && (!errors.As(err, &he) || he.status != tc.want):
			t.Errorf("%d-byte body: %v, want %d", tc.size, err, tc.want)
		}
	}
}

func TestRenderResponseDeterministic(t *testing.T) {
	s := specServer(1 << 20)
	spec, err := s.canonicalize(&PlanRequest{Design: testDesign(t, 24, 7), Options: RequestOptions{Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	body1, status, msg := s.plan(context.Background(), spec)
	if msg != "" || status != 200 {
		t.Fatalf("plan failed: %d %s", status, msg)
	}
	body2, _, _ := s.plan(context.Background(), spec)
	if !bytes.Equal(body1, body2) {
		t.Error("two identical plans rendered different bodies")
	}
	if body1[len(body1)-1] != '\n' {
		t.Error("body must end in newline")
	}
}

// len reports the cache's current entry count.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
