package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// metricsCounters reads the counters section of GET /metrics.
func (s *testServer) metricsCounters(t *testing.T) map[string]int64 {
	t.Helper()
	_, data := s.get(t, "/metrics")
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	return snap.Counters
}

// TestKeyMemoRepeatedBody posts one body three times — sync, async, sync —
// plus one invalid body twice. The repeats answer from the key memo with
// the computed bytes; the invalid body never enters the memo; and the
// result cache is probed exactly once per validated request.
func TestKeyMemoRepeatedBody(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := planBody(t, testDesign(t, 24, 7), RequestOptions{Seed: 3, SkipExchange: true})

	resp, first := s.post(t, "/plan", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "miss" {
		t.Fatalf("first plan: %d cache=%q: %s", resp.StatusCode, resp.Header.Get(CacheHeader), first)
	}
	_, async := s.submitAndAwait(t, body)
	resp, third := s.post(t, "/plan", body)
	if resp.Header.Get(CacheHeader) != "hit" {
		t.Errorf("third plan cache header %q, want hit", resp.Header.Get(CacheHeader))
	}
	if !bytes.Equal(first, async) || !bytes.Equal(first, third) {
		t.Error("repeated body answered with different bytes")
	}
	const invalid = 2
	for i := 0; i < invalid; i++ {
		if resp, data := s.post(t, "/plan", `{"design": "not a design"}`); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("invalid body attempt %d: %d: %s", i, resp.StatusCode, data)
		}
	}

	c := s.metricsCounters(t)
	if c["service/keymemo/hits"] != 2 || c["service/keymemo/misses"] != 3 {
		t.Errorf("keymemo hits/misses = %d/%d, want 2/3",
			c["service/keymemo/hits"], c["service/keymemo/misses"])
	}
	validated := c["service/requests/plan"] + c["service/requests/jobs"] - invalid
	if got := c["service/cache/hits"] + c["service/cache/misses"]; got != validated || got != 3 {
		t.Errorf("cache hits+misses = %d, want %d validated requests", got, validated)
	}
	if n := s.svc.memo.len(); n != 1 {
		t.Errorf("key memo holds %d entries, want 1", n)
	}
}

// TestKeyMemoHitAfterEviction drives the fall-through path: the memo
// still knows the body's key but the result cache has evicted the body,
// so the request is re-parsed from its buffered bytes and recomputed —
// with the original bytes and without a second cache probe.
func TestKeyMemoHitAfterEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheEntries: 1})
	body := planBody(t, testDesign(t, 24, 7), RequestOptions{Seed: 4, SkipExchange: true})
	_, golden := s.post(t, "/plan", body)
	s.svc.cache.Put("an-unrelated-key", []byte("x\n")) // evicts the body

	resp, again := s.post(t, "/plan", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(CacheHeader) != "miss" {
		t.Fatalf("replan: %d cache=%q", resp.StatusCode, resp.Header.Get(CacheHeader))
	}
	if !bytes.Equal(golden, again) {
		t.Error("recomputed body differs from the original")
	}
	c := s.metricsCounters(t)
	if c["service/keymemo/hits"] != 1 || c["service/cache/hits"] != 0 || c["service/cache/misses"] != 2 {
		t.Errorf("keymemo hits %d, cache hits/misses %d/%d; want 1, 0/2",
			c["service/keymemo/hits"], c["service/cache/hits"], c["service/cache/misses"])
	}
}

// TestKeyMemoEvictionRace races memo hits against evictions: with a
// one-entry cache and memo, hot-body requests interleave with requests
// that evict the hot body's result (and key), while SpecKey callers read
// the memo too. Every request must still get its correct 200 body and
// every key must be the canonical one. Run with -race -count=10.
func TestKeyMemoEvictionRace(t *testing.T) {
	const goroutines, rounds = 6, 8
	s := newTestServer(t, Config{Workers: 1, SyncConcurrency: goroutines, CacheEntries: 1})
	ref := specServer(1 << 20)
	design := testDesign(t, 16, 7)
	bodies := make([]string, 3)
	golden := make([][]byte, len(bodies))
	keys := make([]string, len(bodies))
	for i := range bodies {
		bodies[i] = planBody(t, design, RequestOptions{Seed: int64(i + 1), SkipExchange: true})
		spec, err := ref.parseSpec([]byte(bodies[i]))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = spec.key
		if golden[i], _, _ = ref.plan(context.Background(), spec); golden[i] == nil {
			t.Fatalf("reference plan %d failed", i)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := 0 // the hot body
				if g%3 == 2 {
					i = 1 + r%2 // evictors alternate the two cold bodies
				}
				if g%3 == 1 {
					if key, err := s.svc.SpecKey([]byte(bodies[i])); err != nil || key != keys[i] {
						t.Errorf("SpecKey = %q, %v; want %s", key, err, keys[i])
					}
				}
				resp, err := http.Post(s.ts.URL+"/plan", "application/json", strings.NewReader(bodies[i]))
				if err != nil {
					t.Errorf("POST /plan: %v", err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden[i]) {
					t.Errorf("body %d: status %d err %v: wrong body %.80q", i, resp.StatusCode, err, data)
				}
			}
		}(g)
	}
	wg.Wait()

	c := s.metricsCounters(t)
	if got := c["service/cache/hits"] + c["service/cache/misses"]; got != goroutines*rounds {
		t.Errorf("cache hits+misses = %d, want one probe per request (%d)", got, goroutines*rounds)
	}
}
