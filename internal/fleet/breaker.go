package fleet

import (
	"sync"
	"time"
)

// breaker is a per-peer circuit breaker counting consecutive failures.
// After threshold consecutive failures it opens: allow reports false and
// the proxy skips the peer without burning an attempt. Once cooldown has
// elapsed, allow admits exactly one probe (half-open); a successful probe
// closes the breaker, a failed one re-arms the cooldown. The breaker only
// ever influences *which node* computes a plan, never the plan itself, so
// it sits outside the determinism contract.
type breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu    sync.Mutex
	fails int
	open  bool
	until time.Time // while open: earliest time the next probe may pass
}

func newBreaker(threshold int, cooldown time.Duration, now func() time.Time) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, now: now}
}

// allow reports whether the proxy may contact the peer right now. While
// open it returns false until the cooldown elapses, then true exactly
// once per cooldown window (the half-open probe).
func (b *breaker) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return true
	}
	if b.now().Before(b.until) {
		return false
	}
	// Half-open: admit this probe and push the next one a cooldown out so
	// a still-dead peer sees one request per window, not a stampede.
	b.until = b.now().Add(b.cooldown)
	return true
}

// success records a completed exchange with the peer and closes the
// breaker.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.open = false
}

// failure records a failed exchange. It returns true exactly when this
// failure tripped the breaker from closed to open (the caller counts
// open events).
func (b *breaker) failure() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	if b.open {
		// A failed half-open probe re-arms the cooldown.
		b.until = b.now().Add(b.cooldown)
		return false
	}
	if b.fails >= b.threshold {
		b.open = true
		b.until = b.now().Add(b.cooldown)
		return true
	}
	return false
}
