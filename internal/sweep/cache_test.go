package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"copack/internal/obs"
)

// mapCache is a UnitCache over a plain map that counts its traffic.
type mapCache struct {
	mu         sync.Mutex
	m          map[string]json.RawMessage
	hits, puts int
}

func newMapCache() *mapCache { return &mapCache{m: map[string]json.RawMessage{}} }

func (c *mapCache) Get(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[key]
	if ok {
		c.hits++
	}
	return res, ok
}

func (c *mapCache) Put(key string, res json.RawMessage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = res
}

func (c *mapCache) counts() (entries, hits, puts int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m), c.hits, c.puts
}

// countingEnqueue runs each closure on a fresh goroutine and counts the
// offers, so a test can tell a computed unit from a cached one.
func countingEnqueue(n *atomic.Int32) Enqueue {
	return func(fn func()) error {
		n.Add(1)
		go fn()
		return nil
	}
}

// TestUnitCacheKeySeparation runs seed 1 under three unit semantics —
// table2 with 2 random tries, table3, table2 with 3 tries — through one
// cached manager. No two share an entry: each misses, is computed and is
// stored. Only a repeat of the first answers from the cache.
func TestUnitCacheKeySeparation(t *testing.T) {
	cache := newMapCache()
	m := newTestManager(t, func(c *Config) { c.Cache = cache })
	table3, err := (&Request{Kind: "table3", Seeds: []int64{1}}).Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	tries3, err := (&Request{Kind: "table2", Seeds: []int64{1}, RandomTries: 3}).Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	specs := []*Spec{table2Spec(t, 1), table3, tries3}
	for i, sp := range specs {
		if _, _, err := runSweep(t, m, sp); err != nil {
			t.Fatalf("%s tries=%d: %v", sp.Kind, sp.RandomTries, err)
		}
		if entries, hits, puts := cache.counts(); entries != i+1 || hits != 0 || puts != i+1 {
			t.Fatalf("after %s tries=%d: %d entries, %d hits, %d puts; want %d, 0, %d",
				sp.Kind, sp.RandomTries, entries, hits, puts, i+1, i+1)
		}
	}
	if _, _, err := runSweep(t, m, table2Spec(t, 1)); err != nil {
		t.Fatal(err)
	}
	if entries, hits, _ := cache.counts(); entries != 3 || hits != 1 {
		t.Errorf("repeat of the first unit: %d entries, %d hits; want 3, 1", entries, hits)
	}
}

// TestCachedUnitsSkipTheQueue pins where a hit is answered: a repeated
// sweep and a repeated shard offer nothing to the host queue, report
// every unit once, return the same bytes and mark the shard's units
// cached.
func TestCachedUnitsSkipTheQueue(t *testing.T) {
	var offers atomic.Int32
	col := obs.NewCollector()
	m := newTestManager(t, func(c *Config) {
		c.Enqueue = countingEnqueue(&offers)
		c.Cache = newMapCache()
		c.Recorder = col
	})
	sp := table2Spec(t, 1, 2, 3)
	first, _, err := runSweep(t, m, sp)
	if err != nil {
		t.Fatal(err)
	}
	if n := offers.Load(); n != 3 {
		t.Fatalf("first sweep offered %d units to the queue, want 3", n)
	}
	again, p, err := runSweep(t, m, sp)
	if err != nil {
		t.Fatal(err)
	}
	requireEveryUnitOnce(t, p, 3)
	if !bytes.Equal(again, first) {
		t.Error("cached sweep body differs from the computed one")
	}
	if n := offers.Load(); n != 3 {
		t.Errorf("repeat offered %d more units to the queue, want 0", n-3)
	}
	c := col.Snapshot().Counters
	if c["units/local"] != 3 || c["units/cached"] != 3 {
		t.Errorf("units/local %d, units/cached %d; want 3 computed, then 3 cached", c["units/local"], c["units/cached"])
	}

	resp, err := m.RunShardLocal(context.Background(), sp.Unit(2))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Error("shard of a cached unit reports cached=false")
	}
	if n := offers.Load(); n != 3 {
		t.Errorf("cached shard offered %d units to the queue, want 0", n-3)
	}
}

// TestFailedAndCanceledUnitsAreNotCached: only a successful computation
// is stored. A unit that errors, and a unit whose context was canceled
// before it ran, leave the cache empty.
func TestFailedAndCanceledUnitsAreNotCached(t *testing.T) {
	cache := newMapCache()
	m := newTestManager(t, func(c *Config) { c.Cache = cache })
	if _, _, err := runSweep(t, m, &Spec{Kind: "nope", Seeds: []int64{1}}); err == nil {
		t.Fatal("unknown kind did not fail")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := m.execUnit(ctx, table2Spec(t, 1).Unit(0), nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled unit: %v, want context.Canceled", err)
	}
	if entries, _, puts := cache.counts(); entries != 0 || puts != 0 {
		t.Errorf("cache holds %d entries after %d puts, want none", entries, puts)
	}
}

// shardPeer is a Dispatcher whose every unit belongs to a peer Manager,
// served in-process through its RunShardLocal.
type shardPeer struct{ peer *Manager }

func (d shardPeer) Self() string                           { return "self" }
func (d shardPeer) Preference(string) []string             { return []string{"peer", "self"} }
func (d shardPeer) Saturated(context.Context, string) bool { return false }
func (d shardPeer) RunShard(ctx context.Context, _ string, u Unit) (*ShardResponse, error) {
	return d.peer.RunShardLocal(ctx, u)
}

// TestForwardedCacheHitsCountAsCached: when the owner answers a shard
// from its cache, the coordinator counts the unit under units/cached,
// so units/forwarded keeps counting computed units only.
func TestForwardedCacheHitsCountAsCached(t *testing.T) {
	peerCache := newMapCache()
	peer := newTestManager(t, func(c *Config) { c.Cache = peerCache })
	col := obs.NewCollector()
	m := newTestManager(t, func(c *Config) { c.Recorder = col })
	m.SetDispatcher(shardPeer{peer})
	sp := table2Spec(t, 1, 2)
	first, _, err := runSweep(t, m, sp)
	if err != nil {
		t.Fatal(err)
	}
	again, p, err := runSweep(t, m, sp)
	if err != nil {
		t.Fatal(err)
	}
	requireEveryUnitOnce(t, p, 2)
	if !bytes.Equal(again, first) {
		t.Error("body answered from the owner's cache differs from the computed one")
	}
	c := col.Snapshot().Counters
	if c["units/forwarded"] != 2 || c["units/cached"] != 2 || c["units/local"] != 0 {
		t.Errorf("forwarded %d, cached %d, local %d; want 2, 2, 0", c["units/forwarded"], c["units/cached"], c["units/local"])
	}
	if _, hits, _ := peerCache.counts(); hits != 2 {
		t.Errorf("owner cache hits %d, want 2", hits)
	}
}
