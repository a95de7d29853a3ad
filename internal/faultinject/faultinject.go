// Package faultinject is a deterministic, test-only fault-injection
// registry. Long-running or failure-prone stages of the planning pipeline
// call Fire at named injection points; production runs pay a single atomic
// load per call because no fault is ever armed outside tests. Tests arm
// faults with Arm to force a stage to fail — or panic — at an exactly
// chosen call count, which makes starvation, mid-anneal interruption and
// parser failures reproducible without timing games.
//
// The registry is process-global and guarded by a mutex; call Reset (for
// example via t.Cleanup) after every test that arms a fault.
package faultinject

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Point names an injection site. The constants below are the sites wired
// into the pipeline; tests must use the same value the production code
// fires.
type Point string

// Wired injection sites.
const (
	// AnnealPlateau fires at the top of every annealing plateau
	// (anneal.MinimizeContext). An injected error interrupts the run the
	// same way a cancelled context does.
	AnnealPlateau Point = "anneal.plateau"
	// PowerIteration fires once per CG iteration (one V-cycle under MGCG)
	// in power.SolveContext. An injected error stops the iteration,
	// yielding a non-converged Solution — forced solver starvation.
	PowerIteration Point = "power.iteration"
	// RoutePass fires before every via-improvement pass in
	// route.ImproveViasContext. An injected error stops the improvement
	// at the current best plan.
	RoutePass Point = "route.improve-pass"
	// NetlistLine fires for every input line netlist.Read consumes. An
	// injected error becomes a parse error with that line's number.
	NetlistLine Point = "netlist.parse-line"
	// DesignLine fires for every input line the design parser consumes.
	DesignLine Point = "design.parse-line"
	// PlanStage fires at every stage boundary inside copack.PlanContext
	// with no way to observe which stage; arm a panic here to exercise
	// the public API's panic recovery.
	PlanStage Point = "copack.plan-stage"
)

// Network-level injection sites for the fleet's forwarding proxy
// (internal/fleet). Unlike the pipeline sites above these are per-peer:
// the Point is derived from the target node's ID, so a test can kill or
// degrade exactly one node of a fleet while the others stay healthy. The
// proxy transport fires them in connection order — dial, then latency,
// then response-body truncation — and each simulated fault is fully
// deterministic: no real sockets misbehave and no clock is consulted.

// FleetDial returns the injection point the proxy fires before dialing
// peer. An injected error is surfaced as a connection-refused dial
// failure, the signature of a dead or restarting node.
func FleetDial(peer string) Point { return Point("fleet.net-dial/" + peer) }

// FleetLatency returns the injection point fired after the (simulated)
// dial succeeds. An injected error is surfaced as the attempt's deadline
// expiring — a peer that accepted the connection but never answered —
// without any real waiting.
func FleetLatency(peer string) Point { return Point("fleet.net-latency/" + peer) }

// FleetTruncate returns the injection point fired on a successful
// response from peer. An injected error cuts the response body after a
// short prefix so the reader sees io.ErrUnexpectedEOF mid-body — a
// connection dropped while streaming the result.
func FleetTruncate(peer string) Point { return Point("fleet.net-truncate/" + peer) }

// ErrInjected is the default error Fire returns when an armed fault with a
// nil Err fires.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault describes one armed failure.
type Fault struct {
	// Point is the site the fault arms.
	Point Point
	// After makes the fault fire on the After-th Fire call at Point
	// (1-based; 0 behaves like 1, i.e. the very next call).
	After int
	// Err is what Fire returns when the fault fires; nil means
	// ErrInjected.
	Err error
	// PanicValue, when non-nil, makes Fire panic with this value instead
	// of returning an error — simulating an internal bug for the API
	// boundary's recovery to catch.
	PanicValue any
	// Repeat keeps the fault firing on every call at or after After;
	// otherwise it fires exactly once.
	Repeat bool
}

var (
	armed atomic.Bool // fast path: no faults anywhere

	mu     sync.Mutex
	faults map[Point][]*Fault
	calls  map[Point]int
)

// Arm registers a fault. Faults at the same Point fire independently; the
// per-Point call counter starts at the first Fire after the first Arm (or
// after Reset).
func Arm(f Fault) {
	mu.Lock()
	defer mu.Unlock()
	if f.After < 1 {
		f.After = 1
	}
	if faults == nil {
		faults = make(map[Point][]*Fault)
		calls = make(map[Point]int)
	}
	faults[f.Point] = append(faults[f.Point], &f)
	armed.Store(true)
}

// Reset disarms every fault and zeroes all call counters, restoring the
// zero-cost production state.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	faults = nil
	calls = nil
	armed.Store(false)
}

// Fire is called by production code at injection site p. With no fault
// armed anywhere it returns nil at the cost of one atomic load. With
// faults armed it increments p's call counter and returns the error of
// (or panics with the value of) the first fault due at this count.
func Fire(p Point) error {
	if !armed.Load() {
		return nil
	}
	return fire(p)
}

func fire(p Point) error {
	mu.Lock()
	var panicVal any
	var err error
	if calls != nil {
		calls[p]++
		n := calls[p]
		for _, f := range faults[p] {
			if n == f.After || (f.Repeat && n > f.After) {
				switch {
				case f.PanicValue != nil:
					panicVal = f.PanicValue
				case f.Err != nil:
					err = f.Err
				default:
					err = ErrInjected
				}
				break
			}
		}
	}
	mu.Unlock()
	if panicVal != nil {
		panic(panicVal)
	}
	return err
}
