// Package service runs the copack planner as a long-lived HTTP/JSON
// service: a queryable routability/IR oracle that answers many candidate
// evaluations cheaply instead of paying a process start per plan.
//
// The server accepts design text in the internal/design format plus a
// small set of planner options, runs copack.PlanContext jobs through a
// bounded queue of workers, and returns the planned order, route stats,
// IR-drop numbers and (on request) an obs metrics snapshot. Three
// properties are load-bearing:
//
//   - Backpressure, never unbounded goroutines. Async submissions go
//     through a fixed-depth queue; when it is full the server answers
//     429 + Retry-After instead of queueing in memory. The synchronous
//     /plan fast path is bounded by its own semaphore the same way.
//
//   - Content-addressed caching. Results are cached under
//     hash(canonical design text + normalized options), so byte-different
//     requests that mean the same plan (comment/whitespace differences,
//     reordered directives that canonicalize identically, default vs
//     explicit option values) share one cache entry. Partial results are
//     never cached — they depend on wall-clock timing. A key memo keyed
//     by the raw body's sha256 lets byte-identical repeats skip the
//     decode and canonicalization that derive the key, a copy LRU holds
//     plan bodies a fleet router relayed from a peer's cache, and a unit
//     cache keyed by sweep.Unit.Key answers sweep units computed before.
//
//   - Determinism survives the service layer. A plan is a pure function
//     of (canonical design, normalized options); the queue order, worker
//     count and cache state never touch it, so the same request body
//     yields a byte-identical solution body however it is scheduled. The
//     golden tests in http_test.go lock this down.
//
// Plans (/jobs) and distributed sweeps (/sweeps, computed by
// internal/sweep) share one job lifecycle: one job type, one registry,
// one retention list and one drain. Every job keeps an append-only event
// log. A sweep's log streams as GET /sweeps/{id}/events: one tick per
// completed unit (units_done strictly increasing), optional log lines
// from the harness's per-unit progress callbacks, and exactly one
// terminal event (done, failed or canceled — including on server drain),
// which is what lets a client tail the stream without ever seeing it end
// silently.
//
// See cmd/fpserved for the binary and DESIGN.md for why determinism holds
// across queue interleavings.
package service

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"copack"
	"copack/internal/obs"
	"copack/internal/sweep"
)

// Config tunes a Server. The zero value is production-usable: every field
// has a default chosen for a small deployment.
type Config struct {
	// QueueDepth bounds how many async jobs may wait for a worker;
	// submissions beyond it are rejected with 429 + Retry-After.
	// Default (zero or negative) 64.
	QueueDepth int
	// Workers is the number of goroutines draining the job queue: it
	// bounds how many jobs run at once, not how many CPUs they use. A
	// job's own fan-out (a plan's restarts, a sweep unit's rows) runs over
	// one worker per CPU. Default: one per CPU (runtime.GOMAXPROCS).
	Workers int
	// SyncConcurrency bounds how many synchronous /plan requests may be
	// planning at once; excess requests get 429. Default: Workers.
	SyncConcurrency int
	// CacheEntries bounds each of four LRUs: the content-addressed
	// result cache, the copy LRU of plan bodies a fleet router relayed
	// from a peer's cache (see KeepCopy), the raw-body key memo in front
	// of both, and the sweep unit cache (completed sweep units by content
	// address). Default 128; negative disables all four.
	CacheEntries int
	// MaxBodyBytes bounds the request body (and so the design text).
	// Default 1 MiB.
	MaxBodyBytes int64
	// MaxBudget caps the per-job planning budget a request may ask for;
	// larger budget_ms values are rejected with 400. A request that sets
	// no budget_ms plans under MaxBudget, so no plan runs unbounded.
	// Default 2 minutes.
	MaxBudget time.Duration
	// NodeID, when set, prefixes job IDs ("a-j00000042") so a fleet
	// router (internal/fleet) can route job polls to the node that owns
	// the state. Must not contain '-'. Empty means standalone: plain
	// "j00000042" IDs.
	NodeID string
	// SweepMaxSeeds caps a sweep's unit count. Zero or negative takes
	// sweep.NewManager's default, 64.
	SweepMaxSeeds int
	// SweepHeartbeat is the idle interval between keep-alive comments on
	// a sweep event stream. Default 15s.
	SweepHeartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SyncConcurrency <= 0 {
		c.SyncConcurrency = c.Workers
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.MaxBudget <= 0 {
		c.MaxBudget = 2 * time.Minute
	}
	if c.SweepHeartbeat <= 0 {
		c.SweepHeartbeat = 15 * time.Second
	}
	return c
}

// limits are the server's fixed retention and backpressure settings. New
// uses defaultLimits; in-package tests shrink them through newServer.
type limits struct {
	// jobsRetained bounds the finished-job history kept for polling,
	// plans and sweeps in one list; the oldest finished jobs are
	// forgotten first.
	jobsRetained int
	// retryAfter is the base Retry-After hint attached to 429 responses;
	// the rendered hint scales up with current queue depth (see
	// retryAfterSeconds).
	retryAfter time.Duration
}

var defaultLimits = limits{jobsRetained: 1024, retryAfter: time.Second}

// Server is the planning service. Create one with New, mount Handler on an
// http.Server, and call Shutdown to drain. All methods are safe for
// concurrent use.
type Server struct {
	cfg    Config
	lim    limits
	cache  *lru[string, []byte]            // canonical key → rendered body
	copies *lru[string, []byte]            // canonical key → a peer's cached body
	memo   *lru[[sha256.Size]byte, string] // sha256(raw body) → canonical key

	metrics  *obs.Collector
	rec      obs.Recorder // metrics under the service/ prefix
	sweepRec obs.Recorder // metrics under the sweep/ prefix

	sweeps *sweep.Manager // distributed sweep coordinator (internal/sweep)

	baseCtx    context.Context // canceled on Shutdown: running jobs wind down
	baseCancel context.CancelFunc

	queue   chan func()    // plans and sweep units, run by the workers
	syncSem chan struct{}  // bounds concurrent synchronous /plan work
	wg      sync.WaitGroup // workers and sweep coordinators

	mu       sync.Mutex
	closed   bool // no new submissions; queue is (being) closed
	jobs     map[string]*job
	nextID   int64
	finished []string // finished job IDs, oldest first, for retention

	// testHookJobStart, when non-nil, runs at the top of every worker
	// job execution. Tests use it to hold workers busy so queue-full
	// paths become deterministic. Never set in production.
	testHookJobStart func()
}

// New builds a Server and starts its worker pool. The caller owns the
// returned server and must Shutdown it to release the workers.
func New(cfg Config) *Server { return newServer(cfg, defaultLimits) }

func newServer(cfg Config, lim limits) *Server {
	cfg = cfg.withDefaults()
	col := obs.NewCollector()
	s := &Server{
		cfg:      cfg,
		lim:      lim,
		metrics:  col,
		rec:      obs.WithPrefix(col, "service/"),
		sweepRec: obs.WithPrefix(col, "sweep/"),
		queue:    make(chan func(), cfg.QueueDepth),
		syncSem:  make(chan struct{}, cfg.SyncConcurrency),
		jobs:     make(map[string]*job),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.cache = newResultCache(cfg.CacheEntries, s.rec)
	s.copies = newCopyCache(cfg.CacheEntries, s.rec)
	s.memo = newKeyMemo(cfg.CacheEntries, s.rec)
	s.sweeps = sweep.NewManager(sweep.Config{
		MaxSeeds: cfg.SweepMaxSeeds,
		Enqueue:  s.enqueueUnit,
		Cache:    newUnitCache(cfg.CacheEntries, s.sweepRec),
		Recorder: s.sweepRec,
	})
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Shutdown drains the server: new submissions are rejected with 503 and
// the base context is canceled, which reaches every job. Running plans
// finish promptly with their best-so-far Partial results, still-queued
// plans and sweep units run (instantly, under the canceled context) to a
// terminal state, and every sweep ends with a canceled "server draining"
// event. Shutdown then waits for the workers and sweep coordinators to
// exit. It returns ctx.Err if the drain outlives ctx, nil otherwise.
// Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
}

// draining reports whether Shutdown has begun.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// submit admits a new job by its first state: a queued plan goes onto
// the queue, a sweep starts its coordinator (which joins the drain wait)
// and a plan born done (a cache hit) goes straight into the retention
// list. It returns errQueueFull when the queue has no room and
// errDraining once Shutdown began; either way the job is not registered
// and its context is released.
func (s *Server) submit(j *job) error {
	first := j.state // no other goroutine sees j yet
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	switch {
	case s.closed:
		err = errDraining
	case first == JobQueued:
		err = s.enqueueLocked(func() { s.runPlan(j) })
	}
	if err != nil {
		j.cancel(nil)
		return err
	}
	s.nextID++
	if s.cfg.NodeID != "" {
		j.id = fmt.Sprintf("%s-%c%08d", s.cfg.NodeID, j.kind, s.nextID)
	} else {
		j.id = fmt.Sprintf("%c%08d", j.kind, s.nextID)
	}
	s.jobs[j.id] = j
	s.recorder(j.kind).Add("jobs/submitted", 1)
	switch {
	case j.kind == sweepJob:
		s.wg.Add(1)
		go s.runSweep(j)
	case first.terminal():
		s.retain(j)
	}
	return nil
}

// recorder returns where a kind's job counters go: service/ for plans,
// sweep/ for sweeps.
func (s *Server) recorder(kind jobKind) obs.Recorder {
	if kind == sweepJob {
		return s.sweepRec
	}
	return s.rec
}

// lookup returns the job of the given kind with the given ID, or nil: a
// sweep ID is unknown under /jobs and a plan ID under /sweeps.
func (s *Server) lookup(id string, kind jobKind) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil && j.kind == kind {
		return j
	}
	return nil
}

// outcomeCounters names the jobs/ counter each terminal state counts in.
var outcomeCounters = map[JobState]string{
	JobDone:     "jobs/completed",
	JobFailed:   "jobs/failed",
	JobCanceled: "jobs/canceled",
}

// finish is where a queued plan's worker or a sweep's coordinator lets
// go of its job: it settles the job (the first settle wins, so a plan
// canceled while queued stays canceled), counts the outcome and enters
// the job in the retention list.
func (s *Server) finish(j *job, state JobState, status int, body []byte, msg string) {
	j.mu.Lock()
	j.settle(state, status, body, msg)
	final := j.state
	j.mu.Unlock()
	s.recorder(j.kind).Add(outcomeCounters[final], 1)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain(j)
}

// retain appends a terminal job to the retention list and prunes the
// oldest finished jobs beyond the bound, so the job map cannot grow
// without limit under sustained traffic. Caller holds s.mu.
func (s *Server) retain(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.lim.jobsRetained {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for run := range s.queue {
		s.rec.Set("queue/depth", float64(len(s.queue)))
		if s.testHookJobStart != nil {
			s.testHookJobStart()
		}
		run()
	}
}

// enqueueLocked offers run to the queue without blocking. Plans and sweep
// units share the queue, so one backpressure budget governs both
// workloads. Caller holds s.mu.
func (s *Server) enqueueLocked(run func()) error {
	if s.closed {
		return errDraining
	}
	select {
	case s.queue <- run:
		s.rec.Set("queue/depth", float64(len(s.queue)))
		return nil
	default:
		return errQueueFull
	}
}

// enqueueUnit is the sweep manager's path onto the job queue (a
// sweep.Enqueue). It never blocks; the manager owns the retry policy.
func (s *Server) enqueueUnit(fn func()) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enqueueLocked(fn)
}

// queuez reports the job queue's current depth and capacity plus
// whether the server is draining — the admission signal /queuez serves
// and the X-Copack-Queue-Depth header advertises.
func (s *Server) queuez() Queuez {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Queuez{Capacity: s.cfg.QueueDepth, Depth: len(s.queue), Draining: s.closed}
}

// Sweeps exposes the sweep manager so the fleet router can install its
// dispatcher.
func (s *Server) Sweeps() *sweep.Manager { return s.sweeps }

// runPlan executes one queued plan job to a terminal state.
func (s *Server) runPlan(j *job) {
	if !j.begin() {
		// Canceled while queued: requestCancel settled it already.
		s.finish(j, JobCanceled, 0, nil, "")
		return
	}
	body, status, errMsg := s.plan(j.ctx, j.spec)
	if errMsg != "" {
		s.finish(j, JobFailed, status, nil, errMsg)
		return
	}
	s.finish(j, JobDone, status, body, "")
}

// runSweep is a sweep's coordinator goroutine: it runs the sweep to its
// end and settles the job. A canceled sweep's reason is its context's
// cause: "canceled by client" from DELETE, or "server draining" when
// Shutdown canceled the base context. A unit refused by the closing queue
// is the same drain, seen just before the base context is canceled.
func (s *Server) runSweep(j *job) {
	defer s.wg.Done()
	body, err := s.sweeps.Run(j.ctx, j.sweep, j)
	switch {
	case err == nil:
		s.finish(j, JobDone, http.StatusOK, body, "")
	case j.ctx.Err() != nil || errors.Is(err, sweep.ErrDraining):
		msg := "server draining"
		if cause := context.Cause(j.ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			msg = cause.Error()
		}
		s.finish(j, JobCanceled, http.StatusConflict, nil, msg)
	default:
		s.finish(j, JobFailed, http.StatusInternalServerError, nil, err.Error())
	}
}

// plan runs one planning job and renders its response body. On success it
// returns (body, 200, ""); on failure (nil, status, message). Successful
// complete (non-Partial) results are inserted into the cache.
func (s *Server) plan(ctx context.Context, spec *planSpec) (body []byte, status int, errMsg string) {
	budget := spec.opts.budget
	if budget == 0 {
		// No budget_ms: the server cap bounds the plan. The cache key
		// keeps the request's own value.
		budget = s.cfg.MaxBudget
	}
	opt := copack.Options{
		Algorithm:    spec.opts.alg,
		DFACut:       spec.opts.cut,
		SkipExchange: spec.opts.skip,
		Seed:         spec.opts.seed,
		Budget:       budget,
		Exchange:     copack.ExchangeOptions{Restarts: spec.opts.restarts},
	}
	var col *obs.Collector
	if spec.opts.metrics {
		col = obs.NewCollector()
		opt.Recorder = col
	}
	res, err := copack.PlanContext(ctx, spec.problem, opt)
	if err != nil {
		if ctx.Err() != nil {
			return nil, 503, fmt.Sprintf("planning canceled: %v", ctx.Err())
		}
		var pe *copack.PanicError
		if errors.As(err, &pe) {
			return nil, 500, fmt.Sprintf("internal planner fault in %s", pe.Stage)
		}
		return nil, 500, fmt.Sprintf("planning failed: %v", err)
	}
	body, err = renderResponse(spec, res, col)
	if err != nil {
		return nil, 500, fmt.Sprintf("rendering response: %v", err)
	}
	if !res.Partial {
		s.cache.Put(spec.key, body)
	}
	return body, 200, ""
}

// The queue's two refusals. They are the sweep.Enqueue sentinels because
// sweep units ride the same queue.
var (
	errQueueFull = sweep.ErrQueueFull
	errDraining  = sweep.ErrDraining
)

// retryAfterSeconds renders the Retry-After hint (whole seconds, min 1).
// The base (limits.retryAfter) scales with current queue pressure — an
// idle queue hints the base, a full queue hints 5× it — so clients back
// off hardest exactly when the server is deepest in work.
func (s *Server) retryAfterSeconds() string {
	base := int(s.lim.retryAfter / time.Second)
	if base < 1 {
		base = 1
	}
	secs := base
	if s.cfg.QueueDepth > 0 {
		secs = base * (1 + 4*len(s.queue)/s.cfg.QueueDepth)
	}
	return fmt.Sprintf("%d", secs)
}

// KeepCopy stores body, the answer a fleet peer gave for key from its
// cache, so this server answers later requests for key itself. A cached
// plan is a pure function of its key and every node renders the same
// bytes for it, so a copy never goes stale. Copies live in their own LRU
// and never evict the server's own results.
func (s *Server) KeepCopy(key string, body []byte) { s.copies.Put(key, body) }

// Holds reports whether this server answers a plan request for key from
// its result cache or its copies, so a fleet router can serve it here
// without a hop. A draining server holds nothing: it answers 503.
func (s *Server) Holds(key string) bool {
	return (s.cache.has(key) || s.copies.has(key)) && !s.draining()
}

// MaxBudget returns the cap on a request's planning budget, which is also
// the budget of a request that sets none (Config.MaxBudget, defaulted).
func (s *Server) MaxBudget() time.Duration { return s.cfg.MaxBudget }

// MetricsRecorder returns a Recorder writing into the collector /metrics
// serves. The fleet router threads its counters through it so
// retry/failover/breaker activity shows up in the node's own snapshot.
func (s *Server) MetricsRecorder() obs.Recorder { return s.metrics }

// version tag folded into every cache key so a change to the response
// schema or the planning semantics invalidates old entries wholesale.
// v3: restarts above 1 at ψ ≥ 2 start warm, so they plan differently
// than under v2.
const cacheKeyVersion = "copack-plan-v3"

// optionsKey renders normalized options into the canonical cache-key
// fragment. Workers is deliberately absent: it never changes the result.
func (o normOptions) optionsKey() string {
	return fmt.Sprintf("alg=%s cut=%d skip=%t seed=%d restarts=%d budget_ms=%d metrics=%t",
		o.alg, o.cut, o.skip, o.seed, o.restarts, o.budget.Milliseconds(), o.metrics)
}
