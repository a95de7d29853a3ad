package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"copack"
	"copack/internal/assign"
	"copack/internal/exchange"
	"copack/internal/power"
	"copack/internal/route"
	"copack/internal/service"
	"copack/internal/sweep"
)

// span is one traced interval. Spans of one request share Req, the
// request's index in the workload's sequence; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory, recorded by the benchmark around its own
// calls into each layer; the program under test is not instrumented. A nil
// *tracer records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

var noEnd = func() {}

// span opens a span and returns its id and the func that closes it.
func (t *tracer) span(name string, parent, req int) (int, func()) {
	if t == nil {
		return 0, noEnd
	}
	start := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start})
	t.mu.Unlock()
	return id, func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// probeKeys bounds the distinct bodies the hit probe repeats: recent
// enough that every node's 128-entry result cache still holds them.
const probeKeys = 64

// probe runs after a traced load, on every workload, so the service-layer
// numbers exist even where the load itself has no cache hits or no async
// jobs: one client re-sends recently completed plans, alternating sync and
// async and rotating the entry node. Every answer is a cache hit.
func (e *env) probe(chk *checker, tr *tracer, t *tally, ops int) {
	ids := chk.recentPlans(probeKeys)
	if len(ids) == 0 {
		return
	}
	c := e.client(chk, tr)
	for i := 0; i < ops; i++ {
		id := ids[i%len(ids)]
		c.plan(t, probeReqBase+i, id, e.body(id), i%len(e.cl.urls), i%2 == 1)
	}
}

// probeReqBase and replayReqBase keep the probe's and the replay's
// request ids apart from the load's in the trace.
const (
	probeReqBase  = 3_000_000
	replayReqBase = 4_000_000
)

// body returns the request body generated for a plan id.
func (e *env) body(id int) []byte {
	if id >= hotIDBase {
		return e.in.hot[id-hotIDBase]
	}
	return e.in.unique[id]
}

// replayStats are the per-layer numbers of a replay.
type replayStats struct {
	parseUs, formatUs, dfaUs, evalUs []float64
	solveMs, exchangeMs, unitMs      []float64
	iterations                       []float64
	proposed, accepted               int64
	layerNs                          map[string]int64 // busy time per layer
	plans, mismatches                int
	errs                             []string
}

// replay decomposes PlanContext, sequentially and outside the timed load,
// for a seeded sample of the distinct plans the load computed: each call
// into a layer's public function is a child span of a "replay" root. The
// options are the ones the service uses (the request's seed, one restart,
// one worker, the default chip grid), so the replayed final order must
// equal the order in the service's body; any difference is a mismatch.
// It then times sweep.RunUnit on a few table3 units.
func (e *env) replay(chk *checker, tr *tracer, sz sizes) *replayStats {
	rs := &replayStats{layerNs: map[string]int64{}}
	ids := chk.planIDs()
	rand.New(rand.NewSource(e.seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	if len(ids) > sz.replayPlans {
		ids = ids[:sz.replayPlans]
	}
	sort.Ints(ids)
	for _, id := range ids {
		rs.plans++
		if err := rs.replayPlan(tr, id, e.body(id), chk.firstBody(id)); err != nil {
			rs.mismatches++
			if len(rs.errs) < 5 {
				rs.errs = append(rs.errs, fmt.Sprintf("replay of request %d: %v", id, err))
			}
		}
	}
	spec := &sweep.Spec{Kind: sweep.KindTable3, Seeds: sweepSeedSets(e.seed, 1, sz.replayUnits, nil)[0]}
	for u := range spec.Seeds {
		_, end := tr.span("sweep.RunUnit", 0, replayReqBase+sweepIDBase+u)
		start := time.Now()
		_, err := sweep.RunUnit(spec, u, nil)
		d := time.Since(start)
		end()
		if err != nil {
			rs.mismatches++
			rs.errs = append(rs.errs, fmt.Sprintf("sweep unit %d: %v", u, err))
			continue
		}
		rs.unitMs = append(rs.unitMs, ms(d))
	}
	return rs
}

func (rs *replayStats) replayPlan(tr *tracer, id int, reqBody, respBody []byte) error {
	var req service.PlanRequest
	if err := json.Unmarshal(reqBody, &req); err != nil {
		return err
	}
	var resp service.PlanResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return err
	}
	rid := replayReqBase + id
	root, endRoot := tr.span("replay", 0, rid)
	defer endRoot()
	// timed runs fn as a child span and charges its time to layer.
	timed := func(name, layer string, fn func() error) (time.Duration, error) {
		_, end := tr.span(name, root, rid)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		end()
		rs.layerNs[layer] += int64(d)
		return d, err
	}
	ctx := context.Background()

	var p *copack.Problem
	d, err := timed("copack.ParseDesign", "design", func() (err error) {
		p, err = copack.ParseDesign(req.Design)
		return err
	})
	if err != nil {
		return err
	}
	rs.parseUs = append(rs.parseUs, us(d))
	d, _ = timed("copack.FormatDesign", "design", func() error {
		copack.FormatDesign(p)
		return nil
	})
	rs.formatUs = append(rs.formatUs, us(d))

	var initial *copack.Assignment
	d, err = timed("assign.DFA", "assign", func() (err error) {
		initial, err = assign.DFA(p, assign.DFAOptions{Cut: 1})
		return err
	})
	if err != nil {
		return err
	}
	rs.dfaUs = append(rs.dfaUs, us(d))
	d, err = timed("route.Evaluate", "route", func() error {
		_, err := route.Evaluate(p, initial)
		return err
	})
	if err != nil {
		return err
	}
	rs.evalUs = append(rs.evalUs, us(d))

	grid := power.DefaultChipGrid(p)
	solve := func(a *copack.Assignment) (float64, error) {
		var sol *power.Solution
		d, err := timed("power.SolveAssignmentContext", "power", func() (err error) {
			sol, err = power.SolveAssignmentContext(ctx, p, a, grid, power.SolveOptions{Workers: 1})
			return err
		})
		if err != nil {
			return 0, err
		}
		rs.solveMs = append(rs.solveMs, ms(d))
		rs.iterations = append(rs.iterations, float64(sol.Iterations))
		return sol.MaxDrop(), nil
	}
	before, err := solve(initial)
	if err != nil {
		return err
	}

	var ex *exchange.Result
	d, err = timed("exchange.RunContext", "exchange", func() (err error) {
		ex, err = exchange.RunContext(ctx, p, initial, exchange.Options{Seed: req.Options.Seed, Restarts: 1, Workers: 1})
		return err
	})
	if err != nil {
		return err
	}
	rs.exchangeMs = append(rs.exchangeMs, ms(d))
	rs.proposed += int64(ex.Stats.Proposed)
	rs.accepted += int64(ex.Stats.Accepted)

	var final *route.Stats
	d, err = timed("route.Evaluate", "route", func() (err error) {
		final, err = route.Evaluate(p, ex.Assignment)
		return err
	})
	if err != nil {
		return err
	}
	rs.evalUs = append(rs.evalUs, us(d))
	after, err := solve(ex.Assignment)
	if err != nil {
		return err
	}

	_, want, err := copack.ReadSolution(strings.NewReader(resp.Solution))
	if err != nil || want == nil {
		return fmt.Errorf("reading the service's solution: %v", err)
	}
	switch {
	case !reflect.DeepEqual(want.Slots, ex.Assignment.Slots):
		return fmt.Errorf("final order differs from the service body")
	case before != resp.IRDropBeforeV || after != resp.IRDropAfterV:
		return fmt.Errorf("IR-drop %g→%g differs from the service body's %g→%g", before, after, resp.IRDropBeforeV, resp.IRDropAfterV)
	case final.MaxDensity != resp.Final.MaxDensity:
		return fmt.Errorf("max density %d differs from the service body's %d", final.MaxDensity, resp.Final.MaxDensity)
	}
	return nil
}

// share is layer's part of the replay's busy time.
func (rs *replayStats) share(layer string) float64 {
	var total int64
	for _, ns := range rs.layerNs {
		total += ns
	}
	if total == 0 {
		return 0
	}
	return float64(rs.layerNs[layer]) / float64(total)
}

// sweepSeedSets draws n seed sets of k seeds each from seed. With an
// owner function, every unit of set j is owned by node j mod 3, so a
// sweep's units run one after another on that node's single worker and
// every sweep loads the fleet the same way; the seed changes only the
// instances. Drawn freely, placement would decide how many units run at
// once on the two CPUs and dominate the run-to-run spread.
func sweepSeedSets(seed int64, n, k int, owner func(int64) string) [][]int64 {
	r := rand.New(rand.NewSource(seed))
	sets := make([][]int64, n)
	for j := range sets {
		for len(sets[j]) < k {
			s := 1 + r.Int63n(1<<20)
			if owner != nil && owner(s) != fleetIDs[j%len(fleetIDs)] {
				continue
			}
			sets[j] = append(sets[j], s)
		}
	}
	return sets
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
