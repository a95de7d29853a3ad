package service

import (
	"bytes"
	"net/http"
	"testing"
)

// copyBodies returns n plan request bodies with distinct keys, each
// with its golden response from a standalone server: the bytes a fleet
// peer would answer from its cache.
func copyBodies(t *testing.T, n int) (bodies []string, golden [][]byte) {
	t.Helper()
	peer := newTestServer(t, Config{Workers: 1})
	for seed := int64(1); seed <= int64(n); seed++ {
		body := planBody(t, testDesign(t, 24, 7), RequestOptions{Seed: seed, SkipExchange: true})
		resp, data := peer.post(t, "/plan", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("golden plan %d: %d: %s", seed, resp.StatusCode, data)
		}
		bodies = append(bodies, body)
		golden = append(golden, data)
	}
	return bodies, golden
}

// specKey is SpecKey that fails the test on an error.
func specKey(t *testing.T, s *Server, body string) string {
	t.Helper()
	key, err := s.SpecKey([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// TestCopiesNeverEvictOwnResults fills the copy LRU past CacheEntries:
// the oldest copy goes, and the server's own result stays. Both it and a
// kept copy answer as hits with their exact bytes.
func TestCopiesNeverEvictOwnResults(t *testing.T) {
	bodies, golden := copyBodies(t, 4)
	s := newTestServer(t, Config{Workers: 1, CacheEntries: 2})
	if resp, data := s.post(t, "/plan", bodies[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("own plan: %d: %s", resp.StatusCode, data)
	}
	keys := make([]string, len(bodies))
	for i, body := range bodies {
		keys[i] = specKey(t, s.svc, body)
	}
	for i := 1; i < len(bodies); i++ {
		s.svc.KeepCopy(keys[i], golden[i])
	}

	for i, want := range []bool{true, false, true, true} {
		if got := s.svc.Holds(keys[i]); got != want {
			t.Errorf("Holds(body %d) = %v, want %v", i, got, want)
		}
	}
	for _, i := range []int{0, 3} {
		resp, data := s.post(t, "/plan", bodies[i])
		if resp.Header.Get(CacheHeader) != "hit" || !bytes.Equal(data, golden[i]) {
			t.Errorf("body %d: cache=%q, golden %v", i, resp.Header.Get(CacheHeader), bytes.Equal(data, golden[i]))
		}
	}
	c := s.metricsCounters(t)
	if c["service/copies/evictions"] != 1 || c["service/cache/evictions"] != 0 ||
		c["service/cache/hits"] != 1 || c["service/copies/hits"] != 1 {
		t.Errorf("copies evictions %d, cache evictions %d, cache hits %d, copies hits %d; want 1, 0, 1, 1",
			c["service/copies/evictions"], c["service/cache/evictions"], c["service/cache/hits"], c["service/copies/hits"])
	}
}

// TestCopiesDisabledWithCache: a negative CacheEntries disables the copy
// LRU along with the other three.
func TestCopiesDisabledWithCache(t *testing.T) {
	bodies, golden := copyBodies(t, 1)
	s := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	key := specKey(t, s.svc, bodies[0])
	s.svc.KeepCopy(key, golden[0])
	if s.svc.Holds(key) {
		t.Error("disabled copy LRU holds a key")
	}
	resp, data := s.post(t, "/plan", bodies[0])
	if resp.Header.Get(CacheHeader) != "miss" || !bytes.Equal(data, golden[0]) {
		t.Errorf("plan with copies disabled: cache=%q, golden %v", resp.Header.Get(CacheHeader), bytes.Equal(data, golden[0]))
	}
}
