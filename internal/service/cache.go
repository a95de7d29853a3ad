package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"sync"

	"copack/internal/obs"
)

// lru is a bounded least-recently-used map. The service keeps four: the
// content-addressed result cache (canonical request key → rendered body),
// the copy LRU beside it (canonical request key → a fleet peer's cached
// body), the key memo in front of both (sha256 of the raw request bytes →
// canonical key) and the sweep unit cache (sweep.Unit.Key → the unit's
// canonical JSON result; it is the sweep manager's sweep.UnitCache).
// Values are stored and returned as-is — a hit replays the exact bytes of
// the original computation — so callers must never mutate what Get
// returns.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	max     int
	order   *list.List // front = most recently used
	entries map[K]*list.Element
	rec     obs.Recorder // hits, misses, evictions, entries
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// newLRU builds an LRU holding up to max values whose counters land
// under prefix in rec; max < 0 disables it entirely (every get is a
// miss, every put a no-op).
func newLRU[K comparable, V any](max int, rec obs.Recorder, prefix string) *lru[K, V] {
	return &lru[K, V]{
		max:     max,
		order:   list.New(),
		entries: make(map[K]*list.Element),
		rec:     obs.WithPrefix(rec, prefix),
	}
}

// newResultCache builds the result cache. Its hit/miss counters feed the
// service metrics (service/cache/hits, service/cache/misses).
func newResultCache(max int, rec obs.Recorder) *lru[string, []byte] {
	return newLRU[string, []byte](max, rec, "cache/")
}

// newCopyCache builds the copy LRU, bounded like the result cache but
// separate from it, so copies never evict the node's own results
// (service/copies/hits, service/copies/misses).
func newCopyCache(max int, rec obs.Recorder) *lru[string, []byte] {
	return newLRU[string, []byte](max, rec, "copies/")
}

// newKeyMemo builds the key memo, bounded like the result cache
// (service/keymemo/hits, service/keymemo/misses).
func newKeyMemo(max int, rec obs.Recorder) *lru[[sha256.Size]byte, string] {
	return newLRU[[sha256.Size]byte, string](max, rec, "keymemo/")
}

// newUnitCache builds the sweep unit cache, bounded like the result cache;
// rec is the sweep/ recorder (sweep/unitcache/hits, sweep/unitcache/misses).
func newUnitCache(max int, rec obs.Recorder) *lru[string, json.RawMessage] {
	return newLRU[string, json.RawMessage](max, rec, "unitcache/")
}

// Get returns the value for key and refreshes its recency.
func (c *lru[K, V]) Get(key K) (V, bool) {
	var zero V
	if c.max < 0 {
		c.rec.Add("misses", 1)
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.rec.Add("misses", 1)
		return zero, false
	}
	c.order.MoveToFront(el)
	c.rec.Add("hits", 1)
	return el.Value.(*lruEntry[K, V]).val, true
}

// has reports whether key is present, without counting a hit or a miss
// and without refreshing its recency.
func (c *lru[K, V]) has(key K) bool {
	if c.max < 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Put inserts (or refreshes) a value, evicting the least recently used
// entries beyond the bound.
func (c *lru[K, V]) Put(key K, val V) {
	if c.max < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		// Every user stores a pure function of the key (identical requests
		// recompute identical bodies, keys and unit results), so
		// overwriting is a determinism no-op; refresh recency only.
		c.order.MoveToFront(el)
		return
	}
	el := c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	c.entries[key] = el
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
		c.rec.Add("evictions", 1)
	}
	c.rec.Set("entries", float64(c.order.Len()))
}
