package fleet

import (
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for breaker tests: no real waiting.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func newTestBreaker(c *fakeClock, th int, cd time.Duration) *breaker {
	return newBreaker(th, cd, c.now)
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 3, 10*time.Second)
	if !b.allow() {
		t.Fatal("fresh breaker must allow")
	}
	if b.failure() {
		t.Error("failure 1 must not open")
	}
	if b.failure() {
		t.Error("failure 2 must not open")
	}
	if !b.failure() {
		t.Error("failure 3 must report the open transition")
	}
	if !b.isOpen() || b.allow() {
		t.Error("open breaker must refuse before cooldown")
	}
}

func TestBreakerHalfOpenProbeAndRecovery(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 2, 10*time.Second)
	b.failure()
	b.failure() // open
	if b.allow() {
		t.Fatal("allow inside cooldown")
	}
	clk.advance(11 * time.Second)
	if !b.allow() {
		t.Fatal("cooldown elapsed: the half-open probe must pass")
	}
	// The probe slot is single: a second caller inside the same window is
	// still refused.
	if b.allow() {
		t.Error("second probe in the same window must be refused")
	}
	// A failed probe re-arms the cooldown without another open event.
	if b.failure() {
		t.Error("failed probe must not report a fresh open transition")
	}
	if b.allow() {
		t.Error("failed probe must re-arm the cooldown")
	}
	clk.advance(11 * time.Second)
	if !b.allow() {
		t.Fatal("second probe window must open")
	}
	b.success()
	if b.isOpen() || !b.allow() {
		t.Error("successful probe must close the breaker")
	}
	// Closed again: failures count from zero.
	if b.failure() {
		t.Error("first failure after recovery must not open")
	}
}

func TestBreakerSuccessResetsCount(t *testing.T) {
	clk := newFakeClock()
	b := newTestBreaker(clk, 3, time.Second)
	b.failure()
	b.failure()
	b.success()
	if b.failure() || b.failure() {
		t.Error("count must restart after a success")
	}
	if !b.failure() {
		t.Error("third consecutive failure must open")
	}
}

// isOpen reports the breaker's current state.
func (b *breaker) isOpen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.open
}
