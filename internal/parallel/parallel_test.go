package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-5) = %d, want GOMAXPROCS", got)
	}
}

// Every item must run exactly once for any worker count, and the results —
// written by index — must be identical.
func TestForEachRunsEveryItemOnce(t *testing.T) {
	const n = 137
	for _, workers := range []int{1, 2, 4, 8, 200} {
		counts := make([]int32, n)
		out := make([]int, n)
		if err := ForEachErr(context.Background(), n, workers, func(_ context.Context, i int) error {
			atomic.AddInt32(&counts[i], 1)
			out[i] = i * i
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if counts[i] != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, counts[i])
			}
			if out[i] != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, out[i])
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	for _, n := range []int{0, -3} {
		ran := false
		if err := ForEachErr(context.Background(), n, 4, func(_ context.Context, _ int) error {
			ran = true
			return errors.New("boom")
		}); err != nil || ran {
			t.Errorf("n=%d: returned %v, fn ran %v", n, err, ran)
		}
	}
}

// The pool must bound concurrency at the requested width.
func TestForEachBoundsConcurrency(t *testing.T) {
	const n, workers = 64, 3
	var cur, peak atomic.Int32
	_ = ForEachErr(context.Background(), n, workers, func(_ context.Context, _ int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return nil
	})
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// Error selection must be deterministic: the lowest-index error wins
// regardless of scheduling.
func TestForEachErrLowestIndexWins(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		err := ForEachErr(context.Background(), 50, workers, func(_ context.Context, i int) error {
			if i%7 == 3 { // errors at 3, 10, 17, ...
				return fmt.Errorf("item %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "item 3" {
			t.Errorf("workers=%d: err = %v, want item 3", workers, err)
		}
	}
}

// The sequential path stops at the first error, exactly like the loops it
// replaces.
func TestForEachErrSequentialStopsEarly(t *testing.T) {
	var ran []int
	err := ForEachErr(context.Background(), 10, 1, func(_ context.Context, i int) error {
		ran = append(ran, i)
		if i == 2 {
			return errors.New("stop")
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error")
	}
	if len(ran) != 3 || ran[2] != 2 {
		t.Errorf("ran %v, want [0 1 2]", ran)
	}
}

// The context must reach every item: cancellation does not skip items (the
// Partial contract — items bail out fast themselves) but they all observe
// the cancelled context.
func TestForEachPropagatesContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	const n = 25
	sawDone := make([]bool, n)
	for _, workers := range []int{1, 4} {
		for i := range sawDone {
			sawDone[i] = false
		}
		_ = ForEachErr(ctx, n, workers, func(c context.Context, i int) error {
			sawDone[i] = c.Err() != nil
			return nil
		})
		for i, ok := range sawDone {
			if !ok {
				t.Fatalf("workers=%d: item %d did not observe cancellation", workers, i)
			}
		}
	}
}

// A panic in a worker must resurface on the calling goroutine so the public
// API's recover boundary still catches it.
func TestForEachRethrowsPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic swallowed", workers)
				}
				if workers > 1 {
					p, ok := r.(Panic)
					if !ok {
						t.Fatalf("workers=%d: recovered %T, want parallel.Panic", workers, r)
					}
					if p.Index != 5 || p.Value != "kaboom" {
						t.Fatalf("workers=%d: recovered %+v", workers, p)
					}
					if !strings.Contains(string(p.Stack), "TestForEachRethrowsPanics") {
						t.Errorf("workers=%d: Stack lacks the item's frames:\n%s", workers, p.Stack)
					}
					if p.Error() == "" {
						t.Error("empty Panic.Error")
					}
				}
			}()
			_ = ForEachErr(context.Background(), 20, workers, func(_ context.Context, i int) error {
				if i == 5 {
					panic("kaboom")
				}
				return nil
			})
		}()
	}
}

// A panic inside a nested pool comes back once wrapped, not twice: the
// outer pool keeps the inner item's value and the stack of the goroutine
// that panicked.
func TestForEachNestedPanicKeepsOrigin(t *testing.T) {
	defer func() {
		p, ok := recover().(Panic)
		if !ok || p.Index != 1 || p.Value != "deep" {
			t.Fatalf("recovered %+v, want outer index 1 with the inner value", p)
		}
		if !strings.Contains(string(p.Stack), "panicDeep") {
			t.Errorf("Stack lacks the panicking frames:\n%s", p.Stack)
		}
	}()
	_ = ForEachErr(context.Background(), 2, 2, func(_ context.Context, i int) error {
		if i == 1 {
			return ForEachErr(context.Background(), 2, 2, func(_ context.Context, j int) error {
				if j == 1 {
					panicDeep()
				}
				return nil
			})
		}
		return nil
	})
}

func panicDeep() { panic("deep") }

// When several items panic, the lowest index is reported, deterministically.
func TestForEachPanicLowestIndex(t *testing.T) {
	defer func() {
		p, ok := recover().(Panic)
		if !ok || p.Index != 2 {
			t.Fatalf("recovered %+v, want index 2", p)
		}
	}()
	_ = ForEachErr(context.Background(), 30, 8, func(_ context.Context, i int) error {
		if i == 2 || i == 20 {
			panic(i)
		}
		return nil
	})
}

func TestPanicUnwrap(t *testing.T) {
	base := errors.New("base")
	if got := (Panic{Value: base}).Unwrap(); got != base {
		t.Errorf("Unwrap = %v", got)
	}
	if got := (Panic{Value: "str"}).Unwrap(); got != nil {
		t.Errorf("Unwrap non-error = %v", got)
	}
}
