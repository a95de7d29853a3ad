package service

import (
	"context"
	"sync"
)

// JobState is the lifecycle state of an async planning job.
type JobState string

// Job lifecycle: queued → running → done|failed, or queued → canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether a state is final.
func (st JobState) terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCanceled
}

// job is one async planning unit. The zero states flow strictly forward;
// done is closed exactly once, when the job reaches a terminal state.
// Reaching it also cancels ctx and drops spec: a finished job is polled
// only for its rendered body, so it must neither pin the parsed problem
// nor stay registered as a child of the server's base context.
//
// A job with runFn set is a func job: an opaque closure (a sweep unit)
// riding the same bounded queue as plans so both workloads share one
// backpressure budget. Func jobs are never registered in the job map —
// their lifecycle lives in the sweep manager.
type job struct {
	id   string
	spec *planSpec

	runFn  func(ctx context.Context)
	runCtx context.Context

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	state    JobState
	body     []byte // response body once terminal
	status   int    // HTTP status for the result body
	errMsg   string // human-readable failure reason
	cacheHit bool   // result served from the content-addressed cache
	done     chan struct{}
}

// newJob builds a queued job whose context is a child of base (so server
// Shutdown cancels it) with the request's own budget layered on by the
// planner via Options.Budget.
func newJob(base context.Context, spec *planSpec) *job {
	ctx, cancel := context.WithCancel(base)
	return &job{
		spec:   spec,
		ctx:    ctx,
		cancel: cancel,
		state:  JobQueued,
		done:   make(chan struct{}),
	}
}

// newFuncJob wraps a closure as a queue entry. The closure runs on a
// worker with ctx — typically a sweep job's context, so drain and
// cancellation reach it — and always runs once dequeued (possibly under a
// canceled ctx, which it must check), so an enqueuer waiting on its
// completion cannot leak.
func newFuncJob(ctx context.Context, fn func(ctx context.Context)) *job {
	return &job{runFn: fn, runCtx: ctx}
}

// newDoneJob builds a job that is terminal at birth — the cache-hit path.
func newDoneJob(body []byte) *job {
	j := &job{
		state:    JobDone,
		body:     body,
		status:   200,
		cacheHit: true,
		done:     make(chan struct{}),
	}
	close(j.done)
	return j
}

// begin moves queued → running. It returns false when the job was
// canceled while waiting in the queue; the worker must then skip it.
func (j *job) begin() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JobQueued {
		return false
	}
	j.state = JobRunning
	return true
}

// complete moves running → done with the rendered response.
func (j *job) complete(body []byte, status int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.body, j.status = body, status
	j.settle(JobDone)
}

// fail moves the job to failed with an HTTP status and reason.
func (j *job) fail(status int, msg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.terminal() {
		return
	}
	j.status, j.errMsg = status, msg
	j.settle(JobFailed)
}

// settle enters a terminal state: it releases the context and the parsed
// problem (see job) and wakes waiters. Caller holds j.mu.
func (j *job) settle(state JobState) {
	j.state = state
	j.spec = nil
	if j.cancel != nil {
		j.cancel()
	}
	close(j.done)
}

// requestCancel cancels the job. A queued job becomes terminal right away
// (its worker slot is skipped); a running job keeps running until the
// planner hits its next checkpoint and returns a best-so-far Partial
// result, which then completes the job normally.
func (j *job) requestCancel() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.cancel != nil {
		j.cancel()
	}
	if j.state == JobQueued {
		j.status, j.errMsg = 409, "job canceled before it started"
		j.settle(JobCanceled)
	}
	return j.state
}

// snapshot returns the job's externally visible state in one consistent
// read.
type jobView struct {
	ID       string
	State    JobState
	Status   int
	ErrMsg   string
	Body     []byte
	CacheHit bool
}

func (j *job) snapshot() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobView{
		ID:       j.id,
		State:    j.state,
		Status:   j.status,
		ErrMsg:   j.errMsg,
		Body:     j.body,
		CacheHit: j.cacheHit,
	}
}

// wait blocks until the job is terminal or ctx expires; used only by
// tests and the drain path, never by request handlers (polling is the
// client contract).
func (j *job) wait(ctx context.Context) error {
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
