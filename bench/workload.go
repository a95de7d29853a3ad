package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"copack"
	"copack/internal/fleet"
	"copack/internal/service"
	"copack/internal/sweep"
)

// workload is one traffic mix. The names are cited by BENCHMARK.json and
// by later changes' claims, so they never change.
type workload struct {
	name  string
	nodes int // 1: a lone fpserved; 3: a fleet
}

var workloads = []workload{
	{name: "plan-miss", nodes: 1},
	{name: "plan-hit", nodes: 1},
	{name: "fleet-mix", nodes: 3},
	{name: "sweep-mix", nodes: 3},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes fixes how much input a run generates and samples. The defaults are
// the benchmark; tests shrink them.
type sizes struct {
	unique       int // distinct plan bodies for miss traffic
	hot          int // repeated keys for hit traffic
	zipfDraws    int // plan-hit key draws before the sequence wraps
	sweepSets    int // distinct sweep seed sets
	sweepSeeds   int // units per sweep
	sweepEvery   int // sweep-mix sends one sweep per this many operations
	setupRepeats int // set-ups per run; setup_s is their median
	probeOps     int // traced hit probe requests
	replayPlans  int // plans replayed layer by layer
	replayUnits  int // sweep units replayed
}

var defaultSizes = sizes{
	unique:       1500,
	hot:          64,
	zipfDraws:    60000,
	sweepSets:    16,
	sweepSeeds:   4,
	sweepEvery:   32,
	setupRepeats: 3,
	probeOps:     200,
	replayPlans:  200,
	replayUnits:  2,
}

// Body identities: every distinct request the benchmark can send has one
// id, under which the checker remembers the first response's bytes.
const (
	hotIDBase   = 1_000_000
	sweepIDBase = 2_000_000
)

// mix is splitmix64: a seeded, stateless hash from (seed, index) to the
// per-request choices, so a request's shape does not depend on which
// client sends it or when.
func mix(seed int64, i int) uint64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// inputs are a run's generated request bodies; the servers see only these.
type inputs struct {
	unique [][]byte  // unique[i] has id i
	hot    [][]byte  // hot[k] has id hotIDBase+k
	zipf   []int     // plan-hit's seeded Zipf(1.1) draws over hot
	sweeps [][]int64 // distinct table3 seed sets; set j has id sweepIDBase+j
}

// planBody generates the plan request with the given id. Circuits 1–5 and
// tiers 1–4 form 20 classes. Each block of 20 consecutive unique ids holds
// every class once in a seeded order, so any run covers the same mix of
// small and large instances whatever its length. The hot keys are the
// same 64 plans on every seed (hot key k has class 7k mod 20): the seed
// draws only which of them are requested when, so a hit costs the same
// whatever the seed.
func planBody(seed int64, id int) ([]byte, error) {
	var class int
	if id >= hotIDBase {
		class, seed = 7*(id-hotIDBase)%20, 0
	} else {
		class = rand.New(rand.NewSource(int64(mix(seed, id/20)))).Perm(20)[id%20]
	}
	tc := copack.Table1Circuits()[class%5]
	p, err := copack.BuildCircuit(tc, copack.BuildOptions{
		Seed:  int64(mix(seed, id) >> 1),
		Tiers: 1 + class/5,
	})
	if err != nil {
		return nil, fmt.Errorf("generating request %d: %w", id, err)
	}
	return json.Marshal(service.PlanRequest{
		Design:  copack.FormatDesign(p),
		Options: service.RequestOptions{Seed: 1 + int64(mix(seed, id)%5)},
	})
}

func generate(w workload, seed int64, sz sizes) (*inputs, error) {
	in := &inputs{}
	nUnique, nHot := 0, 0
	switch w.name {
	case "plan-miss":
		nUnique = sz.unique
	case "plan-hit":
		nHot = sz.hot
	case "fleet-mix":
		nUnique, nHot = sz.unique, sz.hot
	case "sweep-mix":
		nUnique = sz.unique
		owner, err := unitPlacer()
		if err != nil {
			return nil, err
		}
		in.sweeps = sweepSeedSets(seed, sz.sweepSets, sz.sweepSeeds, owner)
	}
	for i := 0; i < nUnique; i++ {
		b, err := planBody(seed, i)
		if err != nil {
			return nil, err
		}
		in.unique = append(in.unique, b)
	}
	for k := 0; k < nHot; k++ {
		b, err := planBody(seed, hotIDBase+k)
		if err != nil {
			return nil, err
		}
		in.hot = append(in.hot, b)
	}
	if w.name == "plan-hit" {
		z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(nHot-1))
		in.zipf = make([]int, sz.zipfDraws)
		for i := range in.zipf {
			in.zipf[i] = int(z.Uint64())
		}
	}
	return in, nil
}

// fleetIDs are the fleet workloads' node IDs.
var fleetIDs = []string{"a", "b", "c"}

// unitPlacer returns the function that names the fleet node owning a
// table3 sweep unit, by the unit's seed. Placement is a pure function of
// the node IDs and the unit's content key, so a router over placeholder
// URLs that are never dialed places units exactly as the benchmark's
// fleet will.
func unitPlacer() (func(seed int64) string, error) {
	nodes := map[string]string{}
	for _, id := range fleetIDs {
		nodes[id] = "http://127.0.0.1:1"
	}
	svc := service.New(service.Config{Workers: 1, NodeID: fleetIDs[0]})
	// The service never receives work, so its drain cannot fail.
	defer func() { _ = svc.Shutdown(context.Background()) }()
	rt, err := fleet.New(svc, fleet.Config{Self: fleetIDs[0], Nodes: nodes})
	if err != nil {
		return nil, err
	}
	return func(seed int64) string {
		sp := &sweep.Spec{Kind: sweep.KindTable3, Seeds: []int64{seed}}
		return rt.Preference(sp.UnitKey(0))[0]
	}, nil
}

// cluster is a workload's servers: real service.Server (and, for a fleet,
// fleet.Router) handlers on loopback httptest listeners.
type cluster struct {
	svcs    []*service.Server
	servers []*httptest.Server
	urls    []string
}

func bootCluster(nodes int) (*cluster, error) {
	c := &cluster{}
	if nodes == 1 {
		svc := service.New(service.Config{Workers: 2})
		ts := httptest.NewServer(svc.Handler())
		c.svcs, c.servers, c.urls = []*service.Server{svc}, []*httptest.Server{ts}, []string{ts.URL}
		return c, nil
	}
	// Every router needs every node's URL, so the listeners exist before
	// any handler does and the servers start once all routers are built.
	ids := fleetIDs[:nodes]
	urls := map[string]string{}
	for _, id := range ids {
		svc := service.New(service.Config{Workers: 1, SyncConcurrency: 2, NodeID: id})
		ts := httptest.NewUnstartedServer(nil)
		c.svcs = append(c.svcs, svc)
		c.servers = append(c.servers, ts)
		urls[id] = "http://" + ts.Listener.Addr().String()
		c.urls = append(c.urls, urls[id])
	}
	for i, id := range ids {
		rt, err := fleet.New(c.svcs[i], fleet.Config{
			Self: id, Nodes: urls, Seed: 1, Recorder: c.svcs[i].MetricsRecorder(),
		})
		if err != nil {
			for _, ts := range c.servers {
				ts.Listener.Close()
			}
			c.servers = nil
			c.shutdown()
			return nil, err
		}
		c.servers[i].Config.Handler = rt.Handler()
	}
	for _, ts := range c.servers {
		ts.Start()
	}
	return c, nil
}

// shutdown drains every node and closes its listener. A drain error is
// returned so the run counts it as a failed operation.
func (c *cluster) shutdown() error {
	var errs []error
	for _, svc := range c.svcs {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		if err := svc.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
	}
	for _, ts := range c.servers {
		ts.Close()
	}
	return errors.Join(errs...)
}

// nodeMetrics sums the named counters over every node's GET /metrics.
func (c *cluster) nodeMetrics(hc *http.Client) (map[string]int64, error) {
	sum := map[string]int64{}
	for _, u := range c.urls {
		resp, err := hc.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		var snap copack.MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("decoding %s/metrics: %w", u, err)
		}
		for k, v := range snap.Counters {
			sum[k] += v
		}
	}
	return sum, nil
}

func newHTTPClient() *http.Client {
	// The client and the probe keep their connections to every node.
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}, Timeout: 2 * time.Minute}
}

// planQuality is what one distinct plan body says about the plan.
type planQuality struct {
	irGainPct  float64
	maxDensity int
}

// checker verifies every response body: it must decode, its solution must
// be a monotonic-legal order, and it must equal byte for byte the first
// body returned for the same request in this run — sync or async, hit or
// miss, whichever node answered. Bodies already verified are recognised
// by hash, so a hot key costs one sha256 per response, not a re-parse.
type checker struct {
	mu       sync.Mutex
	first    map[int][32]byte // id → hash of the first body
	bodies   map[int][]byte   // id → first body
	verified map[[32]byte]bool
	quality  map[int]planQuality
	done     []int // plan ids in completion order
}

func newChecker() *checker {
	return &checker{
		first:    map[int][32]byte{},
		bodies:   map[int][]byte{},
		verified: map[[32]byte]bool{},
		quality:  map[int]planQuality{},
	}
}

// remember records body as id's reference or compares it against it, and
// reports whether the body's content still needs verifying.
func (c *checker) remember(id int, body []byte) (sum [32]byte, verify bool, err error) {
	sum = sha256.Sum256(body)
	c.mu.Lock()
	defer c.mu.Unlock()
	if ref, ok := c.first[id]; ok && ref != sum {
		return sum, false, fmt.Errorf("request %d: body differs from the first body returned for it", id)
	} else if !ok {
		c.first[id], c.bodies[id] = sum, body
	}
	return sum, !c.verified[sum], nil
}

func (c *checker) plan(id int, body []byte) error {
	sum, verify, err := c.remember(id, body)
	if err != nil {
		return err
	}
	if verify {
		q, err := verifyPlan(body)
		if err != nil {
			return fmt.Errorf("request %d: %w", id, err)
		}
		c.mu.Lock()
		c.verified[sum] = true
		c.quality[id] = q
		c.mu.Unlock()
	}
	c.mu.Lock()
	c.done = append(c.done, id)
	c.mu.Unlock()
	return nil
}

func verifyPlan(body []byte) (planQuality, error) {
	var resp service.PlanResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return planQuality{}, fmt.Errorf("decoding plan body: %w", err)
	}
	if resp.Partial {
		return planQuality{}, fmt.Errorf("plan is partial: %s", resp.Stopped)
	}
	p, a, err := copack.ReadSolution(strings.NewReader(resp.Solution))
	if err != nil {
		return planQuality{}, fmt.Errorf("reading solution: %w", err)
	}
	if a == nil {
		return planQuality{}, errors.New("solution carries no order")
	}
	if err := copack.CheckMonotonic(p, a); err != nil {
		return planQuality{}, fmt.Errorf("solution is not monotonic-legal: %w", err)
	}
	if resp.IRDropBeforeV <= 0 {
		return planQuality{}, fmt.Errorf("IR-drop before exchange is %g V", resp.IRDropBeforeV)
	}
	return planQuality{
		irGainPct:  100 * (resp.IRDropBeforeV - resp.IRDropAfterV) / resp.IRDropBeforeV,
		maxDensity: resp.Final.MaxDensity,
	}, nil
}

func (c *checker) sweep(id int, seeds []int64, body []byte) error {
	sum, verify, err := c.remember(id, body)
	if err != nil || !verify {
		return err
	}
	var res sweep.ResultBody
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("sweep %d: decoding body: %w", id, err)
	}
	if res.Kind != string(sweep.KindTable3) || res.Table3 == nil || fmt.Sprint(res.Seeds) != fmt.Sprint(seeds) {
		return fmt.Errorf("sweep %d: body is not the table3 sweep over seeds %v", id, seeds)
	}
	c.mu.Lock()
	c.verified[sum] = true
	c.mu.Unlock()
	return nil
}

// qualitySample bounds the distinct plans the quality metrics average:
// the lowest ids, so the set does not depend on how fast the run went.
const qualitySample = 200

// meanQuality averages the quality of up to qualitySample distinct plans
// with the lowest ids.
func (c *checker) meanQuality() (irGain, density float64, n int) {
	ids := c.planIDs()
	if len(ids) > qualitySample {
		ids = ids[:qualitySample]
	}
	if len(ids) == 0 {
		return 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		irGain += c.quality[id].irGainPct
		density += float64(c.quality[id].maxDensity)
	}
	return irGain / float64(len(ids)), density / float64(len(ids)), len(ids)
}

// recentPlans returns up to n distinct plan ids, most recently completed
// first.
func (c *checker) recentPlans(n int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[int]bool{}
	var out []int
	for i := len(c.done) - 1; i >= 0 && len(out) < n; i-- {
		if id := c.done[i]; !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	return out
}

// firstBody returns the reference body recorded for id.
func (c *checker) firstBody(id int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bodies[id]
}

// planIDs returns every plan id with a verified body, ascending.
func (c *checker) planIDs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int, 0, len(c.quality))
	for id := range c.quality {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
