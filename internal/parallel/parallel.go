// Package parallel is the repo's bounded worker pool. Every concurrent hot
// path (the exchange's restarts, the experiment harness) fans out through
// ForEachErr, so the concurrency rules live in one place:
//
//   - Work is identified by index. Results must be written into
//     caller-owned, index-addressed storage, never appended, so the output
//     is independent of scheduling order and therefore of the worker count.
//   - Every item runs exactly once regardless of cancellation. Cancellation
//     follows PR 1's Partial contract: the context is propagated into each
//     item, and a cancelled item is expected to return quickly with its
//     best-so-far (partial) result rather than be skipped — skipping would
//     make the result set depend on timing.
//   - A panic inside an item is captured and re-raised on the calling
//     goroutine, so the public API's panic-free boundary (copack.PanicError)
//     keeps holding under parallel execution.
//   - workers <= 1 degrades to a plain loop on the caller's goroutine: no
//     goroutines are spawned and behavior is exactly sequential.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker count: n > 0 is used as-is, anything else
// means "use the hardware", i.e. runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// item panics are re-raised on the caller's goroutine wrapped in a Panic,
// preserving the original value and the panicking goroutine's stack for
// API-boundary recover handlers.
type Panic struct {
	Index int
	Value any
	Stack []byte // taken in the item's goroutine, where the panic happened
}

// Error renders the captured panic (Panic is rethrown via panic(), not
// returned, but implementing error makes stray values debuggable).
func (p Panic) Error() string {
	return fmt.Sprintf("parallel: item %d panicked: %v", p.Index, p.Value)
}

// Unwrap exposes the original panic value when it was an error.
func (p Panic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// ForEachErr invokes fn(ctx, i) for every i in [0, n), running at most
// workers items concurrently, and returns after every started item
// finished. The caller's ctx is passed through to each item; ForEachErr
// itself never aborts on cancellation (see the package comment). Error
// selection is deterministic: the lowest-index error wins, matching what a
// sequential loop over the items would have reported first. With
// workers <= 1 the items run in index order on the calling goroutine and
// the loop stops at the first error, exactly like the sequential code it
// replaces; with more workers the remaining items still run (their results
// are discarded by the caller along with everything else when an error is
// returned).
func ForEachErr(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		errAt = -1 // lowest index that errored
		err   error
		pnc   *Panic // the lowest-index panic
	)
	record := func(i int, e error, p *Panic) {
		mu.Lock()
		defer mu.Unlock()
		if p != nil {
			if pnc == nil || i < pnc.Index {
				pnc = p
			}
			return
		}
		if e != nil && (errAt < 0 || i < errAt) {
			errAt, err = i, e
		}
	}
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				record(i, nil, &Panic{Index: i, Value: r, Stack: debug.Stack()})
			}
		}()
		record(i, fn(ctx, i), nil)
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if pnc != nil {
		panic(*pnc)
	}
	return err
}
