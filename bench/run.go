package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"
)

// metricDef is a metric as the code emits it; BENCHMARK.json must declare
// exactly these, in this order.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the service sees, measured untraced.
// Every workload sends plans, so every metric exists on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"plan_p50_ms", "ms", "lower"},
	{"plan_p90_ms", "ms", "lower"},
	{"plans_per_s", "1/s", "higher"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"ir_gain_pct", "%", "higher"},
	{"max_density_mean", "count", "lower"},
}

// perLayer are the traced run's per-layer metrics. README.md names the
// end-to-end metric and workload each should move.
var perLayer = []metricDef{
	{"service.hit_ms.p50", "ms", "lower"},
	{"service.hit_ms.p90", "ms", "lower"},
	{"service.queue_wait_ms.p50", "ms", "lower"},
	{"service.polls_per_job", "count", "lower"},
	{"service.cache.hit_ratio", "ratio", "higher"},
	{"service.cache.evictions", "count", "lower"},
	{"service.rejected", "count", "lower"},
	{"design.parse_us.p50", "us", "lower"},
	{"design.format_us.p50", "us", "lower"},
	{"fleet.forwarded_ratio", "ratio", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"fleet.admission_skipped", "count", "lower"},
	{"sweep.unit_ms.p50", "ms", "lower"},
	{"sweep.units_per_s", "1/s", "higher"},
	{"sweep.units_remote_ratio", "ratio", "higher"},
	{"sweep.units_computed_ratio", "ratio", "lower"},
	{"assign.dfa_us.p50", "us", "lower"},
	{"route.evaluate_us.p50", "us", "lower"},
	{"power.solve_ms.p50", "ms", "lower"},
	{"power.iterations.mean", "count", "lower"},
	{"power.share", "ratio", "lower"},
	{"exchange.run_ms.p50", "ms", "lower"},
	{"exchange.share", "ratio", "lower"},
	{"anneal.moves.mean", "count", "lower"},
	{"anneal.accept_ratio", "ratio", "higher"},
	{"exchange.ns_per_move", "ns", "lower"},
	{"replay.plans", "count", "higher"},
	{"replay.mismatches", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
}

// value is one metric's reading in one run and the number of samples it
// summarises. NaN marks a tail percentile the sample cannot support.
type value struct {
	v       float64
	samples int
}

func pct(xs []float64, p float64) value {
	n := len(xs)
	if n == 0 || (p > 50 && !tailSupported(n, p)) {
		return value{math.NaN(), n}
	}
	return value{percentile(append([]float64(nil), xs...), p), n}
}

func ratio(num, den float64, samples int) value {
	if den == 0 {
		return value{0, samples}
	}
	return value{num / den, samples}
}

// runResult is one workload run.
type runResult struct {
	attempted, failed int
	correct           bool
	metrics           map[string]value
	errs              []string
	spans             []span
}

// env is one set-up workload: its sizes, inputs, servers and HTTP client.
type env struct {
	w    workload
	seed int64
	sz   sizes
	in   *inputs
	cl   *cluster
	hc   *http.Client
}

// setup generates the inputs, boots the servers, opens connections and,
// for plan-hit, plans every hot key so the load sees only hits. None of it
// is timed as load; all of it is set-up time.
func setup(w workload, seed int64, sz sizes, chk *checker) (*env, error) {
	in, err := generate(w, seed, sz)
	if err != nil {
		return nil, err
	}
	cl, err := bootCluster(w.nodes)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, sz: sz, in: in, cl: cl, hc: newHTTPClient()}
	if err := e.warm(chk); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) warm(chk *checker) error {
	c := e.client(chk, nil)
	for _, u := range e.cl.urls {
		if _, _, err := c.call(http.MethodGet, u+"/healthz", nil, http.StatusOK, 0, 0, ""); err != nil {
			return err
		}
	}
	if e.w.name != "plan-hit" {
		return nil
	}
	t := &tally{}
	for k := range e.in.hot {
		c.plan(t, hotIDBase+k, hotIDBase+k, e.in.hot[k], 0, false)
	}
	if t.failed > 0 {
		return fmt.Errorf("filling the cache: %s", t.errs[0])
	}
	return nil
}

func (e *env) close() error {
	e.hc.CloseIdleConnections()
	return e.cl.shutdown()
}

// runWorkload makes one run of w. Untraced, it sets up several times
// (setup_s is the median), drives the load and reports the end-to-end
// metrics. Traced, it drives an untraced and a traced load of the same
// length (their throughput difference is the tracing overhead), probes
// the service, replays a sample layer by layer, and reports the per-layer
// metrics. An error means the benchmark itself could not run.
func runWorkload(w workload, seed int64, seconds float64, sz sizes, traced bool) (*runResult, error) {
	chk := newChecker()
	res := &runResult{metrics: map[string]value{}}
	drain := func(e *env) {
		if err := e.close(); err != nil {
			res.attempted++
			res.failed++
			res.errs = append(res.errs, "drain: "+err.Error())
		}
	}
	absorb := func(t *tally) {
		res.attempted += t.attempted
		res.failed += t.failed
		res.errs = append(res.errs, t.errs...)
	}

	repeats := sz.setupRepeats
	if traced {
		repeats = 1
	}
	var setups []float64
	var e *env
	for r := 0; r < repeats; r++ {
		start := time.Now()
		var err error
		if e, err = setup(w, seed, sz, chk); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if r < repeats-1 {
			drain(e)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	load := seconds
	if traced {
		// The untraced and the traced load share the run's length.
		load = seconds / 2
	}
	t, wall := e.runLoad(chk, nil, load)
	runtime.ReadMemStats(&after)
	drain(e)
	absorb(t)
	plansPerS := float64(len(t.planMs)) / wall.Seconds()

	if !traced {
		m := res.metrics
		_, med, _ := quartiles(setups)
		m["setup_s"] = value{med, len(setups)}
		m["plan_p50_ms"] = pct(t.planMs, 50)
		m["plan_p90_ms"] = pct(t.planMs, 90)
		m["plans_per_s"] = value{plansPerS, len(t.planMs)}
		m["alloc_kb_per_op"] = ratio(float64(after.TotalAlloc-before.TotalAlloc)/1024, float64(t.attempted), t.attempted)
		ir, dens, n := chk.meanQuality()
		m["ir_gain_pct"] = value{ir, n}
		m["max_density_mean"] = value{dens, n}
		res.correct = res.failed == 0
		return res, nil
	}

	tr := newTracer()
	e, err := setup(w, seed, sz, chk)
	if err != nil {
		return nil, fmt.Errorf("%s: traced setup: %w", w.name, err)
	}
	tt, twall := e.runLoad(chk, tr, load)
	tracedPerS := float64(len(tt.planMs)) / twall.Seconds()
	counters, err := e.cl.nodeMetrics(e.hc)
	if err != nil {
		drain(e)
		return nil, fmt.Errorf("%s: reading node metrics: %w", w.name, err)
	}
	e.probe(chk, tr, tt, sz.probeOps)
	drain(e)
	absorb(tt)
	rs := e.replay(chk, tr, sz)
	res.errs = append(res.errs, rs.errs...)
	res.spans = tr.snapshot()

	m := res.metrics
	hits, misses := float64(counters["service/cache/hits"]), float64(counters["service/cache/misses"])
	m["service.hit_ms.p50"] = pct(tt.hitMs, 50)
	m["service.hit_ms.p90"] = pct(tt.hitMs, 90)
	m["service.queue_wait_ms.p50"] = pct(tt.queueWaitMs, 50)
	m["service.polls_per_job"] = ratio(float64(tt.polls), float64(tt.asyncJobs), tt.asyncJobs)
	m["service.cache.hit_ratio"] = ratio(hits, hits+misses, int(hits+misses))
	m["service.cache.evictions"] = value{float64(counters["service/cache/evictions"]), 1}
	m["service.rejected"] = value{float64(tt.rejected), tt.attempted}
	m["design.parse_us.p50"] = pct(rs.parseUs, 50)
	m["design.format_us.p50"] = pct(rs.formatUs, 50)
	m["fleet.forwarded_ratio"] = ratio(float64(tt.forwarded), float64(tt.answered), tt.answered)
	m["fleet.retries"] = value{float64(counters["fleet/retries"]), 1}
	m["fleet.failovers"] = value{float64(counters["fleet/failovers"]), 1}
	m["fleet.admission_skipped"] = value{float64(counters["fleet/admission/skipped"]), 1}
	local, remote := float64(counters["sweep/units/local"]), float64(counters["sweep/units/forwarded"])
	m["sweep.unit_ms.p50"] = pct(rs.unitMs, 50)
	m["sweep.units_per_s"] = value{float64(tt.units) / twall.Seconds(), tt.units}
	m["sweep.units_remote_ratio"] = ratio(remote, local+remote, int(local+remote))
	m["sweep.units_computed_ratio"] = ratio(local+remote, float64(tt.units), tt.units)
	m["assign.dfa_us.p50"] = pct(rs.dfaUs, 50)
	m["route.evaluate_us.p50"] = pct(rs.evalUs, 50)
	m["power.solve_ms.p50"] = pct(rs.solveMs, 50)
	m["power.iterations.mean"] = value{mean(rs.iterations), len(rs.iterations)}
	m["power.share"] = value{rs.share("power"), rs.plans}
	m["exchange.run_ms.p50"] = pct(rs.exchangeMs, 50)
	m["exchange.share"] = value{rs.share("exchange"), rs.plans}
	m["anneal.moves.mean"] = ratio(float64(rs.proposed), float64(rs.plans), rs.plans)
	m["anneal.accept_ratio"] = ratio(float64(rs.accepted), float64(rs.proposed), int(rs.proposed))
	m["exchange.ns_per_move"] = ratio(float64(rs.layerNs["exchange"]), float64(rs.proposed), int(rs.proposed))
	m["replay.plans"] = value{float64(rs.plans), rs.plans}
	m["replay.mismatches"] = value{float64(rs.mismatches), rs.plans}
	m["trace.overhead_pct"] = value{100 * (plansPerS - tracedPerS) / plansPerS, len(tt.planMs)}
	m["trace.spans"] = value{float64(len(res.spans)), len(res.spans)}
	res.correct = res.failed == 0 && rs.mismatches == 0
	return res, nil
}
