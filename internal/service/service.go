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
//     decode and canonicalization that derive the key.
//
//   - Determinism survives the service layer. A plan is a pure function
//     of (canonical design, normalized options); the queue order, worker
//     count and cache state never touch it, so the same request body
//     yields a byte-identical solution body however it is scheduled. The
//     golden tests in http_test.go lock this down.
//
// See cmd/fpserved for the binary and DESIGN.md for why determinism holds
// across queue interleavings.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
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
	// Default 64.
	QueueDepth int
	// Workers is the number of goroutines draining the job queue.
	// Default: one per CPU (runtime.GOMAXPROCS).
	Workers int
	// SyncConcurrency bounds how many synchronous /plan requests may be
	// planning at once; excess requests get 429. Default: Workers.
	SyncConcurrency int
	// CacheEntries bounds the content-addressed result cache (LRU) and
	// the raw-body key memo in front of it. Default 128; negative
	// disables both.
	CacheEntries int
	// MaxBodyBytes bounds the request body (and so the design text).
	// Default 1 MiB.
	MaxBodyBytes int64
	// MaxBudget caps the per-job planning budget a request may ask for;
	// larger budget_ms values are rejected with 400. Default 2 minutes.
	MaxBudget time.Duration
	// PlanWorkers is copack.Options.Workers for every job: the
	// parallelism inside one plan. The planner guarantees worker-count
	// independence, so this only trades per-job latency against cross-job
	// throughput. Default 1 (jobs are the unit of parallelism here).
	PlanWorkers int
	// MaxJobsRetained bounds the finished-job history kept for polling;
	// the oldest finished jobs are forgotten first. Default 1024.
	MaxJobsRetained int
	// RetryAfter is the base Retry-After hint attached to 429 responses;
	// the rendered hint scales up with current queue depth (see
	// retryAfterSeconds). Default 1 second.
	RetryAfter time.Duration
	// NodeID, when set, prefixes job IDs ("a-j00000042") so a fleet
	// router (internal/fleet) can route job polls to the node that owns
	// the state. Must not contain '-'. Empty means standalone: plain
	// "j00000042" IDs.
	NodeID string
	// SweepMaxSeeds caps a sweep's unit count. Default 64.
	SweepMaxSeeds int
	// SweepRetained bounds the finished-sweep history kept for polling.
	// Default 64.
	SweepRetained int
	// SweepShardBatch is how many units ride in one forwarded sweep
	// shard. Default 1 (finest progress granularity).
	SweepShardBatch int
	// SweepLocalConcurrency bounds how many of one sweep's units may
	// occupy the job queue at once. Default 2.
	SweepLocalConcurrency int
	// SweepHeartbeat is the idle interval between keep-alive comments on
	// a sweep event stream. Default 15s.
	SweepHeartbeat time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
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
	if c.PlanWorkers <= 0 {
		c.PlanWorkers = 1
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 1024
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.SweepHeartbeat <= 0 {
		c.SweepHeartbeat = 15 * time.Second
	}
	return c
}

// Server is the planning service. Create one with New, mount Handler on an
// http.Server, and call Shutdown to drain. All methods are safe for
// concurrent use.
type Server struct {
	cfg   Config
	cache *lru[string, []byte]            // canonical key → rendered body
	memo  *lru[[sha256.Size]byte, string] // sha256(raw body) → canonical key

	metrics *obs.Collector
	rec     obs.Recorder // metrics under the service/ prefix

	sweeps *sweep.Manager // distributed sweep coordinator (internal/sweep)

	baseCtx    context.Context // canceled on Shutdown: running jobs wind down
	baseCancel context.CancelFunc

	queue   chan *job
	syncSem chan struct{} // bounds concurrent synchronous /plan work
	wg      sync.WaitGroup

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
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	col := obs.NewCollector()
	s := &Server{
		cfg:     cfg,
		metrics: col,
		rec:     obs.WithPrefix(col, "service/"),
		queue:   make(chan *job, cfg.QueueDepth),
		syncSem: make(chan struct{}, cfg.SyncConcurrency),
		jobs:    make(map[string]*job),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.cache = newResultCache(cfg.CacheEntries, s.rec)
	s.memo = newKeyMemo(cfg.CacheEntries, s.rec)
	s.sweeps = sweep.NewManager(sweep.Config{
		NodeID:           cfg.NodeID,
		MaxSeeds:         cfg.SweepMaxSeeds,
		MaxRetained:      cfg.SweepRetained,
		ShardBatch:       cfg.SweepShardBatch,
		LocalConcurrency: cfg.SweepLocalConcurrency,
		Enqueue:          s.enqueueFunc,
		Recorder:         obs.WithPrefix(col, "sweep/"),
	})
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// MetricsSnapshot returns the server's current metrics (counters and
// gauges under the service/ prefix). The JSON form is what /metrics
// serves.
func (s *Server) MetricsSnapshot() obs.Snapshot { return s.metrics.Snapshot() }

// Shutdown drains the server: new submissions are rejected with 503,
// running jobs are canceled so they finish promptly with their
// best-so-far Partial results, still-queued jobs run (instantly, under
// the canceled context) to a terminal state, and the worker pool exits.
// It returns ctx.Err if the drain outlives ctx, nil otherwise. Shutdown
// is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel()

	// Sweep coordinators first: their contexts are children of baseCtx so
	// they are already winding down; Drain waits until each has emitted
	// its terminal canceled event. Their queued unit closures still run
	// (instantly, under the canceled context) because the workers below
	// drain the closed queue fully before exiting.
	if err := s.sweeps.Drain(ctx); err != nil {
		return err
	}

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

// submit registers j and enqueues it. It returns errQueueFull when the
// queue has no room and errDraining once Shutdown began; in both cases
// the job was not registered.
func (s *Server) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errDraining
	}
	select {
	case s.queue <- j:
	default:
		return errQueueFull
	}
	s.register(j)
	s.rec.Add("jobs/submitted", 1)
	s.rec.Set("queue/depth", float64(len(s.queue)))
	return nil
}

// registerDone registers a job that is already terminal (a cache hit):
// it never touches the queue and enters the retention list at once.
func (s *Server) registerDone(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errDraining
	}
	s.register(j)
	s.retain(j)
	s.rec.Add("jobs/submitted", 1)
	return nil
}

// register assigns an ID and stores the job. Caller holds s.mu.
func (s *Server) register(j *job) {
	s.nextID++
	if s.cfg.NodeID != "" {
		j.id = fmt.Sprintf("%s-j%08d", s.cfg.NodeID, s.nextID)
	} else {
		j.id = fmt.Sprintf("j%08d", s.nextID)
	}
	s.jobs[j.id] = j
}

// lookup returns the job with the given ID, or nil.
func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// finish records a queued job reaching a terminal state.
func (s *Server) finish(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retain(j)
}

// retain appends a terminal job to the retention list and prunes the
// oldest finished jobs beyond the bound, so the job map cannot grow
// without limit under sustained traffic. Caller holds s.mu.
func (s *Server) retain(j *job) {
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.MaxJobsRetained {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// worker drains the queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.rec.Set("queue/depth", float64(len(s.queue)))
		if s.testHookJobStart != nil {
			s.testHookJobStart()
		}
		s.runJob(j)
	}
}

// enqueueFunc is the sweep manager's path onto the job queue: sweep units
// compete with plans for the same bounded capacity, so one backpressure
// budget governs both workloads. Never blocks; the manager owns the
// retry policy.
func (s *Server) enqueueFunc(ctx context.Context, fn func(ctx context.Context)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return sweep.ErrDraining
	}
	select {
	case s.queue <- newFuncJob(ctx, fn):
		s.rec.Set("queue/depth", float64(len(s.queue)))
		return nil
	default:
		return sweep.ErrQueueFull
	}
}

// QueueInfo reports the job queue's current depth and capacity plus
// whether the server is draining — the admission signal /queuez serves
// and the X-Copack-Queue-Depth header advertises.
func (s *Server) QueueInfo() (depth, capacity int, draining bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.cfg.QueueDepth, s.closed
}

// Sweeps exposes the sweep manager so the fleet router can install its
// dispatcher and serve forwarded shards.
func (s *Server) Sweeps() *sweep.Manager { return s.sweeps }

// runJob executes one queued job to a terminal state. Func jobs (sweep
// units) carry their own lifecycle; everything else is a plan.
func (s *Server) runJob(j *job) {
	if j.runFn != nil {
		j.runFn(j.runCtx)
		return
	}
	if !j.begin() {
		// Canceled while queued: terminal already.
		s.rec.Add("jobs/canceled", 1)
		s.finish(j)
		return
	}
	body, status, errMsg := s.plan(j.ctx, j.spec)
	switch {
	case errMsg == "":
		j.complete(body, status)
		s.rec.Add("jobs/completed", 1)
	default:
		j.fail(status, errMsg)
		s.rec.Add("jobs/failed", 1)
	}
	s.finish(j)
}

// plan runs one planning job and renders its response body. On success it
// returns (body, 200, ""); on failure (nil, status, message). Successful
// complete (non-Partial) results are inserted into the cache.
func (s *Server) plan(ctx context.Context, spec *planSpec) (body []byte, status int, errMsg string) {
	opt := copack.Options{
		Algorithm:    spec.opts.alg,
		DFACut:       spec.opts.cut,
		SkipExchange: spec.opts.skip,
		Seed:         spec.opts.seed,
		Budget:       spec.opts.budget,
		Workers:      s.cfg.PlanWorkers,
		Exchange:     copack.ExchangeOptions{Restarts: spec.opts.restarts},
		Portfolio:    spec.opts.portfolio,
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
	if res.Exchange != nil && res.Exchange.Portfolio != nil {
		// Surface the bandit's replay identity: the trace hash pins the
		// full arm-allocation trace, split across two gauges because a
		// float64 cannot hold 64 bits of hash losslessly.
		h := res.Exchange.Portfolio.TraceHash()
		s.rec.Add("portfolio/plans", 1)
		s.rec.Set("portfolio/last_trace_hash_hi", float64(h>>32))
		s.rec.Set("portfolio/last_trace_hash_lo", float64(h&0xffffffff))
	}
	if !res.Partial {
		s.cache.put(spec.key, body)
	}
	return body, 200, ""
}

// sentinel submission outcomes.
var (
	errQueueFull = errors.New("service: job queue full")
	errDraining  = errors.New("service: shutting down")
)

// retryAfterSeconds renders the Retry-After hint (whole seconds, min 1).
// The configured base scales with current queue pressure — an idle queue
// hints the base, a full queue hints 5× it — so clients back off hardest
// exactly when the server is deepest in work.
func (s *Server) retryAfterSeconds() string {
	base := int(s.cfg.RetryAfter / time.Second)
	if base < 1 {
		base = 1
	}
	secs := base
	if s.cfg.QueueDepth > 0 {
		secs = base * (1 + 4*len(s.queue)/s.cfg.QueueDepth)
	}
	return fmt.Sprintf("%d", secs)
}

// MetricsRecorder returns a Recorder writing into the collector /metrics
// serves. The fleet router threads its counters through it so
// retry/failover/breaker activity shows up in the node's own snapshot.
func (s *Server) MetricsRecorder() obs.Recorder { return s.metrics }

// version tag folded into every cache key so a change to the response
// schema or the planning semantics invalidates old entries wholesale.
// v2: the portfolio fragment joined the key.
const cacheKeyVersion = "copack-plan-v2"

// optionsKey renders normalized options into the canonical cache-key
// fragment. Workers is deliberately absent: it never changes the result.
// The portfolio fragment is the config's canonical JSON ("-" when unset):
// struct fields marshal in declaration order, so equal configs render
// equal fragments.
func (o normOptions) optionsKey() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "alg=%s cut=%d skip=%t seed=%d restarts=%d budget_ms=%d metrics=%t",
		o.alg, o.cut, o.skip, o.seed, o.restarts, o.budget.Milliseconds(), o.metrics)
	sb.WriteString(" portfolio=")
	if o.portfolio == nil {
		sb.WriteString("-")
	} else {
		pj, _ := json.Marshal(o.portfolio)
		sb.Write(pj)
	}
	return sb.String()
}
