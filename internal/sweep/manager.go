package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"copack/internal/obs"
)

// Enqueue submits fn to the host's bounded execution queue; fn later runs
// on a queue worker. The sentinel errors tell the coordinator how to
// react: ErrQueueFull means back off and retry (the queue sheds load, the
// sweep absorbs the wait), ErrDraining means the host is shutting down:
// Run winds down and returns an error wrapping it, which the host reports
// as a canceled sweep.
type Enqueue func(fn func()) error

// Sentinel outcomes of an Enqueue attempt.
var (
	ErrQueueFull = errors.New("sweep: execution queue full")
	ErrDraining  = errors.New("sweep: host draining")
)

// Dispatcher gives a Manager its fleet: consistent-hash unit placement
// plus remote shard execution and the fleet-wide admission signal. A nil
// Dispatcher means standalone — every unit runs locally. The fleet router
// implements this interface; the sweep package never imports it.
type Dispatcher interface {
	// Self is the local node's ID.
	Self() string
	// Preference orders every node by ring distance from a unit content
	// key: the owner first, then the failover successors.
	Preference(key string) []string
	// Saturated reports whether node's advertised queue depth says it
	// cannot take more work right now — consulted before forwarding a
	// shard, so admission happens before the hop, not via a 429 after it.
	Saturated(ctx context.Context, node string) bool
	// RunShard executes unit u on node. Any error (dead node, 4xx/5xx,
	// truncated response) means the caller runs the unit locally — the
	// degradation path that makes a mid-sweep node kill lose zero units.
	RunShard(ctx context.Context, node string, u Unit) (*ShardResponse, error)
}

// Progress receives a running sweep's completions. Calls arrive
// concurrently, from whichever goroutine finished the work, and none
// arrives after Run returns.
type Progress interface {
	// Unit reports that unit i finished, computed by node or answered
	// from node's unit cache.
	Unit(i int, node string)
	// Log forwards one of the harness's per-row progress lines.
	Log(line string)
}

// UnitCache remembers computed unit results by their content address
// (Unit.Key). A unit's result is a pure function of its key, so a
// stored result answers every later request for that unit with the same
// bytes. Implementations must be safe for concurrent use and must not
// mutate a stored result.
type UnitCache interface {
	Get(key string) (json.RawMessage, bool)
	Put(key string, result json.RawMessage)
}

// Config tunes a Manager. The zero value of everything but Enqueue is
// usable standalone.
type Config struct {
	// MaxSeeds caps a sweep's unit count (400 beyond it). Default (zero
	// or negative) 64.
	MaxSeeds int
	// Enqueue submits unit closures to the host's bounded queue.
	// Required.
	Enqueue Enqueue
	// Cache answers units computed before, on this node, without the
	// queue. Nil caches nothing.
	Cache UnitCache
	// Recorder receives the manager's counters (prefix them upstream).
	Recorder obs.Recorder
}

// localConcurrency bounds how many of one sweep's units may sit in the
// local execution queue at once, so one sweep cannot monopolize the queue
// plans share.
const localConcurrency = 2

// enqueueRetryDelay is how long the coordinator waits before re-offering
// a unit to a full queue. The queue bounds memory, not the sweep: a sweep
// absorbs backpressure by waiting where plans shed 429s.
const enqueueRetryDelay = 2 * time.Millisecond

// Manager is a node's sweep coordinator: it computes sweeps (Run) and the
// shards peers forward to it (RunShardLocal). It keeps no per-sweep
// state between calls; the host owns each sweep's lifecycle. All methods
// are safe for concurrent use.
type Manager struct {
	cfg Config
	rec obs.Recorder

	dispMu sync.RWMutex
	disp   Dispatcher
}

// NewManager builds a Manager.
func NewManager(cfg Config) *Manager {
	if cfg.MaxSeeds <= 0 {
		cfg.MaxSeeds = 64
	}
	return &Manager{cfg: cfg, rec: obs.OrNop(cfg.Recorder)}
}

// SetDispatcher installs the fleet dispatcher. Call before serving
// traffic (the fleet router does this at construction time).
func (m *Manager) SetDispatcher(d Dispatcher) {
	m.dispMu.Lock()
	m.disp = d
	m.dispMu.Unlock()
}

func (m *Manager) dispatcher() Dispatcher {
	m.dispMu.RLock()
	defer m.dispMu.RUnlock()
	return m.disp
}

// MaxSeeds exposes the unit cap for request normalization.
func (m *Manager) MaxSeeds() int { return m.cfg.MaxSeeds }

// Run computes one sweep: place every unit on the ring, forward each
// remote unit to its owner, degrade failures to local computation, and
// reduce in index order. It reports every completed unit and harness log
// line to progress. Once ctx is canceled it stops scheduling, waits for
// in-flight units and returns ctx.Err(); a unit error (including
// ErrDraining from the host queue) fails the sweep with that error.
func (m *Manager) Run(ctx context.Context, sp *Spec, progress Progress) ([]byte, error) {
	r := &run{
		m:        m,
		ctx:      ctx,
		sp:       sp,
		progress: progress,
		node:     "local",
		results:  make([]json.RawMessage, len(sp.Seeds)),
		sem:      make(chan struct{}, localConcurrency),
	}
	// Place every unit: owner "" means local (standalone, or the ring
	// walk starts at self). Grouping preserves unit index order within
	// each owner's list; goroutine launch order is irrelevant to the
	// result.
	disp := m.dispatcher()
	if disp != nil {
		r.node = disp.Self()
	}
	groups := map[string][]int{}
	for i := range sp.Seeds {
		owner := ""
		if disp != nil {
			if p := disp.Preference(sp.UnitKey(i))[0]; p != r.node {
				owner = p
			}
		}
		groups[owner] = append(groups[owner], i)
	}
	var wg sync.WaitGroup
	for owner, units := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if owner == "" {
				r.local(units)
			} else {
				r.peer(disp, owner, units)
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := r.firstErr.get(); err != nil {
		return nil, err
	}
	return sp.Reduce(r.results)
}

// run is one sweep in flight: what its per-owner goroutines share. Each
// unit index has exactly one writer into results, so the slice needs no
// lock.
type run struct {
	m        *Manager
	ctx      context.Context
	sp       *Spec
	progress Progress
	node     string // the label local completions report
	results  []json.RawMessage
	sem      chan struct{} // bounds this sweep's units in the local queue
	firstErr errOnce
}

// peer drives one owner's units, one unit per shard so progress ticks
// stay granular and one dead peer delays at most one unit at a time:
// admission check → forward → on any trouble, run the unit locally, so a
// dead or saturated peer costs latency, never units. A unit the owner
// answered from its unit cache counts as cached, not forwarded: the
// units/ counters count computed units.
func (r *run) peer(disp Dispatcher, peer string, units []int) {
	for _, u := range units {
		if r.ctx.Err() != nil {
			return
		}
		if disp.Saturated(r.ctx, peer) {
			r.m.rec.Add("admission/local-fallback", 1)
			r.local([]int{u})
			continue
		}
		resp, err := disp.RunShard(r.ctx, peer, r.sp.Unit(u))
		if err != nil || len(resp.Result) == 0 {
			if r.ctx.Err() != nil {
				return
			}
			r.m.rec.Add("shards/failover-local", 1)
			r.local([]int{u})
			continue
		}
		r.m.rec.Add("shards/forwarded", 1)
		if resp.Cached {
			r.m.rec.Add("units/cached", 1)
		} else {
			r.m.rec.Add("units/forwarded", 1)
		}
		r.results[u] = resp.Result
		r.progress.Unit(u, peer)
	}
}

// local executes units through the host's bounded queue, ticking
// progress per completion.
func (r *run) local(units []int) {
	bounded(r.ctx, r.sem, len(units), func(k int) {
		u := units[k]
		res, cached, err := r.m.execUnit(r.ctx, r.sp.Unit(u), r.progress.Log)
		if err != nil {
			if r.ctx.Err() == nil {
				r.firstErr.set(fmt.Errorf("unit %d (seed %d): %w", u, r.sp.Seeds[u], err))
			}
			return
		}
		r.results[u] = res
		if cached {
			r.m.rec.Add("units/cached", 1)
		} else {
			r.m.rec.Add("units/local", 1)
		}
		r.progress.Unit(u, r.node)
	})
}

// bounded calls fn(k) for k = 0..n-1, each on its own goroutine, with at
// most cap(sem) calls in flight, and starts no more once ctx is canceled.
// It returns when every started call has returned.
func bounded(ctx context.Context, sem chan struct{}, n int, fn func(k int)) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for k := 0; k < n && ctx.Err() == nil; k++ {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			fn(k)
		}()
	}
}

// execUnit produces one unit's result, and is the only place a unit is
// computed, for a coordinator's own units and a peer's shard alike. A
// unit in the cache is answered at once, without the queue (cached is
// true). Otherwise execUnit offers the computation to the host's bounded
// queue, backs off briefly while the queue is full, waits for the worker
// to finish it, and caches a successful result. Enqueued closures always
// run — the host drains its queue on shutdown — so the wait cannot leak.
func (m *Manager) execUnit(ctx context.Context, u Unit, progress func(string)) (res json.RawMessage, cached bool, err error) {
	key := u.Key()
	if m.cfg.Cache != nil {
		if hit, ok := m.cfg.Cache.Get(key); ok {
			return hit, true, nil
		}
	}
	done := make(chan struct{})
	var runErr error
	fn := func() {
		defer close(done)
		if err := ctx.Err(); err != nil {
			runErr = err
			return
		}
		res, runErr = u.run(progress)
	}
	for {
		err := m.cfg.Enqueue(fn)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrQueueFull) {
			return nil, false, err
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-time.After(enqueueRetryDelay):
		}
	}
	<-done
	if runErr != nil {
		return nil, false, runErr
	}
	if m.cfg.Cache != nil {
		m.cfg.Cache.Put(key, res)
	}
	return res, false, nil
}

// RunShardLocal executes a forwarded shard on this node: it answers the
// unit from the unit cache or runs it through the bounded queue. This is
// the body of the internal POST /sweeps/shard hop; the host checks the
// unit (Unit.Normalize) before it calls this.
func (m *Manager) RunShardLocal(ctx context.Context, u Unit) (*ShardResponse, error) {
	res, cached, err := m.execUnit(ctx, u, nil)
	if err != nil {
		return nil, err
	}
	m.rec.Add("shards/served", 1)
	return &ShardResponse{Result: res, Cached: cached}, nil
}

// errOnce keeps the first error set on it.
type errOnce struct {
	mu  sync.Mutex
	err error
}

func (e *errOnce) set(err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err == nil {
		e.err = err
	}
}

func (e *errOnce) get() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
