package service

import (
	"context"
	"sync"

	"copack/internal/sweep"
)

// JobState is the lifecycle state of an async job, plan or sweep.
type JobState string

// Job lifecycle: a plan runs queued → running → done|failed, or queued →
// canceled. A sweep is born running — its coordinator starts at once and
// its units queue behind the worker pool — and ends done, failed or
// canceled.
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

// EventType tags one entry of a job's event log.
type EventType string

// Event types. Progress ticks carry a strictly increasing units_done;
// log events carry harness progress lines; exactly one terminal event
// ends every log, and its type is the job's terminal state. Heartbeats
// are a property of the HTTP stream, not the log — they never appear
// here, which keeps the log deterministic in length.
const (
	EventProgress EventType = "progress"
	EventLog      EventType = "log"
	EventDone     EventType = EventType(JobDone)
	EventFailed   EventType = EventType(JobFailed)
	EventCanceled EventType = EventType(JobCanceled)
)

// Event is one entry of a job's append-only event log, the unit the
// /sweeps/{id}/events stream serializes. Seq is the 1-based log position.
type Event struct {
	Seq        int       `json:"seq"`
	Type       EventType `json:"type"`
	UnitsDone  int       `json:"units_done"`
	UnitsTotal int       `json:"units_total"`
	// Seed is the completed unit's seed (progress events).
	Seed *int64 `json:"seed,omitempty"`
	// Node names who computed the unit, or answered it from its unit
	// cache (progress) — diagnostic only, completion order and placement
	// vary with scheduling; only the final body is deterministic.
	Node string `json:"node,omitempty"`
	// Line is a harness progress line (log events).
	Line string `json:"line,omitempty"`
	// Error is the failure or cancel reason (failed/canceled events).
	Error string `json:"error,omitempty"`
}

// jobKind is the letter that starts a job's ID and names the route
// family that answers it: plans live under /jobs, sweeps under /sweeps.
type jobKind byte

const (
	planJob  jobKind = 'j'
	sweepJob jobKind = 's'
)

// job is one async unit of work: a plan or a sweep. Its state flows
// strictly forward, and settle makes its one terminal transition.
//
// The event log is append-only. changed is closed and replaced on every
// append, so waiters and streams wake without polling. A sweep's log
// holds one progress tick per unit, the harness's log lines and the
// terminal event; a plan's holds only the terminal event.
type job struct {
	id    string
	kind  jobKind
	spec  *planSpec   // a plan's parsed request; settle drops it
	sweep *sweep.Spec // a sweep's spec; len(Seeds) is units_total

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	state     JobState
	body      []byte // response body once done
	status    int    // HTTP status for the result body
	errMsg    string // human-readable failure or cancel reason
	cacheHit  bool   // a plan answered from the content-addressed cache
	unitsDone int
	events    []Event
	changed   chan struct{}
}

// newJob builds a job in its first state (queued plan, running sweep)
// whose context is a child of base, so server Shutdown cancels it; a
// plan's own budget is layered on by the planner via Options.Budget.
func newJob(base context.Context, kind jobKind) *job {
	ctx, cancel := context.WithCancelCause(base)
	state := JobQueued
	if kind == sweepJob {
		state = JobRunning
	}
	return &job{kind: kind, ctx: ctx, cancel: cancel, state: state, changed: make(chan struct{})}
}

// append adds one event to the log and wakes every waiter. Caller holds
// j.mu.
func (j *job) append(e Event) {
	e.Seq = len(j.events) + 1
	e.UnitsDone = j.unitsDone
	if j.sweep != nil {
		e.UnitsTotal = len(j.sweep.Seeds)
	}
	j.events = append(j.events, e)
	close(j.changed)
	j.changed = make(chan struct{})
}

// Unit records one completed sweep unit (sweep.Progress): units_done
// increments under the lock that orders the log, so progress ticks are
// strictly increasing however many workers finish units at once. The
// coordinator settles the job only after Run returns, so no tick can
// follow the terminal event.
func (j *job) Unit(i int, node string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.unitsDone++
	seed := j.sweep.Seeds[i]
	j.append(Event{Type: EventProgress, Seed: &seed, Node: node})
}

// Log records a harness progress line (sweep.Progress).
func (j *job) Log(line string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.append(Event{Type: EventLog, Line: line})
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

// settle makes the job's terminal transition; the first call wins and
// later ones change nothing, so the log holds exactly one terminal event.
// It records the outcome, appends the terminal event, cancels the
// context and drops the parsed problem: a finished job is polled only for
// its rendered body, so it must neither pin the problem nor stay
// registered as a child of the server's base context. Caller holds j.mu.
func (j *job) settle(state JobState, status int, body []byte, msg string) {
	if j.state.terminal() {
		return
	}
	j.state, j.status, j.body, j.errMsg = state, status, body, msg
	j.spec = nil
	j.append(Event{Type: EventType(state), Error: msg})
	j.cancel(nil)
}

// requestCancel cancels the job's context with cause. A queued plan
// becomes terminal right away (its worker slot is skipped). A running
// plan keeps running until the planner hits its next checkpoint and
// returns a best-so-far Partial result, which then completes the job
// normally. A sweep's coordinator stops scheduling units and settles the
// job canceled with cause as its reason.
func (j *job) requestCancel(cause error) JobState {
	j.cancel(cause)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobQueued {
		j.settle(JobCanceled, 409, nil, "job canceled before it started")
	}
	return j.state
}

// jobView is a job's externally visible state in one consistent read.
type jobView struct {
	ID         string
	State      JobState
	Status     int
	ErrMsg     string
	Body       []byte
	CacheHit   bool
	UnitsDone  int
	UnitsTotal int
}

func (j *job) snapshot() jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID:        j.id,
		State:     j.state,
		Status:    j.status,
		ErrMsg:    j.errMsg,
		Body:      j.body,
		CacheHit:  j.cacheHit,
		UnitsDone: j.unitsDone,
	}
	if j.sweep != nil {
		v.UnitsTotal = len(j.sweep.Seeds)
	}
	return v
}

// eventsSince returns the log entries after position from (0 returns the
// whole log), a channel that closes on the next append, and whether the
// log already holds its terminal event. A streaming consumer loops: drain
// the slice, then wait on the channel (or a heartbeat timer, or the
// client's context) unless terminal was set. The returned slice aliases
// the log; that is safe because appends never touch existing entries.
func (j *job) eventsSince(from int) (events []Event, changed <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.events)
	return j.events[min(from, n):n:n], j.changed, j.state.terminal()
}
