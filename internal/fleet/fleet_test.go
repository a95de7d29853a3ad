package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"copack"
	"copack/internal/faultinject"
	"copack/internal/service"
)

// swapHandler lets the httptest server start before its router exists:
// the fleet needs every node's URL to build any node's membership.
type swapHandler struct{ v atomic.Value }

type handlerBox struct{ h http.Handler }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.v.Load().(handlerBox).h.ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) { s.v.Store(handlerBox{h}) }

type testNode struct {
	id  string
	svc *service.Server
	rt  *Router
	ts  *httptest.Server
	sw  *swapHandler
}

type testFleet struct {
	t     *testing.T
	nodes map[string]*testNode
	order []string
}

// fastRetry is the test tuning: nanosecond backoff (no real waiting),
// two attempts, a hair-trigger breaker that stays open for the test's
// lifetime unless a tweak lowers the cooldown.
var fastRetry = retryPolicy{
	attempts:         2,
	base:             time.Nanosecond,
	max:              time.Nanosecond,
	breakerThreshold: 2,
	breakerCooldown:  time.Hour,
}

// newTestRouter builds node id's router over svc with the test tuning.
func newTestRouter(t *testing.T, svc *service.Server, id string, urls map[string]string, retry retryPolicy) *Router {
	t.Helper()
	rt, err := newRouter(svc, Config{Self: id, Nodes: urls, Seed: 7, Recorder: svc.MetricsRecorder()}, retry)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func newTestFleet(t *testing.T, ids []string, tweak func(r *retryPolicy)) *testFleet {
	t.Helper()
	return newTestFleetSvc(t, ids, service.Config{Workers: 1, QueueDepth: 16, SyncConcurrency: 16}, tweak)
}

// newTestFleetSvc is newTestFleet with every node's service built from
// svcCfg (NodeID set per node).
func newTestFleetSvc(t *testing.T, ids []string, svcCfg service.Config, tweak func(r *retryPolicy)) *testFleet {
	t.Helper()
	f := &testFleet{t: t, nodes: map[string]*testNode{}, order: ids}
	urls := make(map[string]string, len(ids))
	for _, id := range ids {
		sc := svcCfg
		sc.NodeID = id
		svc := service.New(sc)
		sw := &swapHandler{}
		sw.set(http.NotFoundHandler())
		ts := httptest.NewServer(sw)
		f.nodes[id] = &testNode{id: id, svc: svc, ts: ts, sw: sw}
		urls[id] = ts.URL
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := svc.Shutdown(ctx); err != nil {
				t.Errorf("shutdown %s: %v", id, err)
			}
			ts.Close()
		})
	}
	retry := fastRetry
	if tweak != nil {
		tweak(&retry)
	}
	for _, id := range ids {
		rt := newTestRouter(t, f.nodes[id].svc, id, urls, retry)
		f.nodes[id].rt = rt
		f.nodes[id].sw.set(rt.Handler())
	}
	return f
}

// fleetDesign renders a small, fast instance in the design text format.
func fleetDesign(t testing.TB) string {
	t.Helper()
	tc := copack.TestCircuit{Name: "fleet", Fingers: 24,
		BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
	p, err := copack.BuildCircuit(tc, copack.BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return copack.FormatDesign(p)
}

// planBody builds a /plan request body for design with the given seed.
func planBody(t testing.TB, design string, seed int64) string {
	t.Helper()
	data, err := json.Marshal(service.PlanRequest{Design: design,
		Options: service.RequestOptions{Seed: seed, SkipExchange: true}})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// bodyOwnedBy searches seeds until it finds a request body whose plan
// key the ring assigns to want. Ownership is a pure function of
// (membership, body), so the search is deterministic.
func (f *testFleet) bodyOwnedBy(t *testing.T, design, want string) string {
	t.Helper()
	any := f.nodes[f.order[0]]
	for seed := int64(0); seed < 1000; seed++ {
		body := planBody(t, design, seed)
		key, err := any.svc.SpecKey([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if any.rt.ring.owner(key) == want {
			return body
		}
	}
	t.Fatalf("no seed below 1000 hashes to node %s", want)
	return ""
}

// goldenBody computes the reference response on a standalone (fleetless)
// server — the byte-identity oracle every fleet answer is held to.
func goldenBody(t *testing.T, body string) []byte {
	t.Helper()
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/plan", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("golden plan: %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func (f *testFleet) post(t *testing.T, node, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(f.nodes[node].ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s %s: %v", node, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s %s: reading body: %v", node, path, err)
	}
	return resp, data
}

func (f *testFleet) get(t *testing.T, node, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(f.nodes[node].ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s %s: %v", node, path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s %s: reading body: %v", node, path, err)
	}
	return resp, data
}

// awaitJob polls a job through node until it is done and returns its
// result body.
func (f *testFleet) awaitJob(t *testing.T, node, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := f.get(t, node, "/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s via %s: %d: %s", id, node, resp.StatusCode, data)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		switch st.State {
		case "done":
			resp, body := f.get(t, node, "/jobs/"+id+"/result")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result %s: %d: %s", id, resp.StatusCode, body)
			}
			return body
		case "failed", "canceled":
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

// counters fetches a node's /metrics counters.
func (f *testFleet) counters(t *testing.T, node string) map[string]int64 {
	t.Helper()
	resp, data := f.get(t, node, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics on %s: %d", node, resp.StatusCode)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Counters
}

func TestForwardToOwnerSharesOneLogicalCache(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	body := f.bodyOwnedBy(t, design, "b")
	golden := goldenBody(t, body)

	// Hitting a forwards to the owner b; the answer is byte-identical to
	// a standalone server's.
	resp, data := f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan via a: %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(nodeHeader); got != "b" {
		t.Errorf("answering node %q, want b", got)
	}
	if !bytes.Equal(data, golden) {
		t.Error("forwarded body differs from standalone golden")
	}

	// The same request straight to b is a cache hit: one logical cache.
	resp, data = f.post(t, "b", "/plan", body)
	if resp.Header.Get("X-Copack-Cache") != "hit" {
		t.Error("owner did not serve the forwarded result from cache")
	}
	if !bytes.Equal(data, golden) {
		t.Error("cached body differs from golden")
	}

	c := f.counters(t, "a")
	if c["fleet/serve/forwarded-owner"] == 0 {
		t.Errorf("forwarded-owner counter missing: %v", c)
	}
	cb := f.counters(t, "b")
	if cb["fleet/hops/received"] == 0 {
		t.Errorf("owner never counted the hop: %v", cb)
	}
}

func TestHopHeaderPreventsReforwarding(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	body := f.bodyOwnedBy(t, design, "b")

	// A request already marked as a hop must be served locally by a even
	// though b owns it — this is what makes routing loops impossible.
	req, err := http.NewRequest("POST", f.nodes["a"].ts.URL+"/plan", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hopHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("hop plan: %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(nodeHeader); got != "a" {
		t.Errorf("hop answered by %q, want a (local)", got)
	}
	if !bytes.Equal(data, goldenBody(t, body)) {
		t.Error("hop-served body differs from golden")
	}
}

func TestRouterErrorPaths(t *testing.T) {
	// The router reads plan bodies under the local service's cap.
	f := newTestFleetSvc(t, []string{"a", "b"},
		service.Config{Workers: 1, QueueDepth: 16, SyncConcurrency: 16, MaxBodyBytes: 4096}, nil)
	// Malformed bodies are served locally and get the service's own 400.
	resp, data := f.post(t, "a", "/plan", "{nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed: %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(nodeHeader); got != "a" {
		t.Errorf("malformed answered by %q, want a", got)
	}
	// A design with no power net is invalid too: the entry node answers
	// the service's 400 itself instead of forwarding it to an owner.
	noPower := strings.ReplaceAll(fleetDesign(t), " power\n", " signal\n")
	for _, path := range []string{"/plan", "/jobs"} {
		resp, data = f.post(t, "a", path, planBody(t, noPower, 1))
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "no power net") {
			t.Errorf("no power net %s: %d: %s", path, resp.StatusCode, data)
		}
		if got := resp.Header.Get(nodeHeader); got != "a" {
			t.Errorf("no power net %s answered by %q, want a", path, got)
		}
	}
	// Oversized bodies die at the router with 413 before any hashing.
	resp, data = f.post(t, "a", "/jobs", `{"design": "`+strings.Repeat("x", 8192)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized: %d: %s", resp.StatusCode, data)
	}
	var e map[string]string
	if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
		t.Errorf("413 body %q is not a JSON error", data)
	}
}

func TestJobRoutingByIDPrefix(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	body := f.bodyOwnedBy(t, design, "b")
	golden := goldenBody(t, body)

	// Submission via a lands on owner b; the ID carries b's prefix.
	resp, data := f.post(t, "a", "/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit via a: %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "b-j") {
		t.Fatalf("job id %q does not carry the owner prefix b-", sub.ID)
	}

	// Polling through a is transparently forwarded to b by the prefix.
	if got := f.awaitJob(t, "a", sub.ID); !bytes.Equal(got, golden) {
		t.Error("job result via a differs from golden")
	}

	// Unknown and unprefixed IDs answer the local service's 404.
	for _, id := range []string{"zzz", "q-j00000001", "j99999999"} {
		if resp, _ := f.get(t, "a", "/jobs/"+id); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /jobs/%s: %d, want 404", id, resp.StatusCode)
		}
	}

	// DELETE routes by prefix too: canceling the done job via a reaches b
	// and reports its terminal state.
	req, _ := http.NewRequest(http.MethodDelete, f.nodes["a"].ts.URL+"/jobs/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ddata, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK || !bytes.Contains(ddata, []byte("done")) {
		t.Errorf("DELETE via a: %d: %s", dresp.StatusCode, ddata)
	}
}

func TestConnectionRefusedFailsOverAndOpensBreaker(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	body := f.bodyOwnedBy(t, design, "b")
	golden := goldenBody(t, body)

	// Kill b: every connection to it is refused, deterministically.
	faultinject.Arm(faultinject.Fault{Point: faultinject.FleetDial("b"), Repeat: true})

	resp, data := f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan with b dead: %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(nodeHeader); got != "a" {
		t.Errorf("answered by %q, want local fallback on a", got)
	}
	if !bytes.Equal(data, golden) {
		t.Error("failover body differs from golden")
	}
	c := f.counters(t, "a")
	for _, k := range []string{"fleet/retries", "fleet/failovers", "fleet/breaker/opened", "fleet/serve/failover-local"} {
		if c[k] == 0 {
			t.Errorf("counter %s is zero after failover: %v", k, c)
		}
	}

	// The breaker is now open (threshold 2, both attempts failed): the
	// next b-owned request skips b without burning attempts.
	resp, data = f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden) {
		t.Fatalf("second plan: %d", resp.StatusCode)
	}
	c2 := f.counters(t, "a")
	if c2["fleet/breaker/skipped"] == 0 {
		t.Errorf("open breaker was not consulted: %v", c2)
	}
	if c2["fleet/retries"] != c["fleet/retries"] {
		t.Errorf("open breaker still burned retries: %d → %d", c["fleet/retries"], c2["fleet/retries"])
	}

	// "Restart" b: clear the fault and let the breaker cool down — the
	// next request probes b and succeeds there again.
	faultinject.Reset()
	f.nodes["a"].rt.breakers["b"].mu.Lock()
	f.nodes["a"].rt.breakers["b"].until = time.Now().Add(-time.Second)
	f.nodes["a"].rt.breakers["b"].mu.Unlock()
	resp, data = f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden) {
		t.Fatalf("post-restart plan: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(nodeHeader); got != "b" {
		t.Errorf("post-restart answered by %q, want b", got)
	}
	if f.nodes["a"].rt.breakers["b"].isOpen() {
		t.Error("breaker still open after a successful probe")
	}
}

func TestTruncatedResponseIsRetriedClean(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	body := f.bodyOwnedBy(t, design, "b")
	golden := goldenBody(t, body)

	// The first response from b dies mid-body; the retry must deliver
	// the full bytes — the client never sees the truncated prefix.
	faultinject.Arm(faultinject.Fault{Point: faultinject.FleetTruncate("b")})
	resp, data := f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d: %s", resp.StatusCode, data)
	}
	if !bytes.Equal(data, golden) {
		t.Error("body after truncation retry differs from golden")
	}
	if got := resp.Header.Get(nodeHeader); got != "b" {
		t.Errorf("answered by %q, want b via retry", got)
	}
	if c := f.counters(t, "a"); c["fleet/retries"] == 0 {
		t.Errorf("truncation did not count a retry: %v", c)
	}
}

func TestLatencyTimeoutIsRetried(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	body := f.bodyOwnedBy(t, design, "b")
	golden := goldenBody(t, body)

	// The first attempt times out (simulated — no clock involved); the
	// retry goes through.
	faultinject.Arm(faultinject.Fault{Point: faultinject.FleetLatency("b")})
	resp, data := f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden) {
		t.Fatalf("plan: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(nodeHeader); got != "b" {
		t.Errorf("answered by %q, want b via retry", got)
	}
	if c := f.counters(t, "a"); c["fleet/retries"] == 0 {
		t.Errorf("timeout did not count a retry: %v", c)
	}
}

// TestDrainWhileForwarding is the drain satellite: a node entering
// graceful drain answers 503 to its peers, and the forwarding proxy
// treats that as an immediate failover — the job lands and completes on
// a surviving node, nothing is lost.
func TestDrainWhileForwarding(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b", "c"}, nil)
	design := fleetDesign(t)
	body := f.bodyOwnedBy(t, design, "b")
	golden := goldenBody(t, body)

	// b drains (no in-flight work, so Shutdown returns promptly) but its
	// process — and its HTTP surface — stays up, answering 503.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.nodes["b"].svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if resp, _ := f.post(t, "b", "/plan", body); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining b answered %d, want 503", resp.StatusCode)
	}

	// An async submission via a fails over off the draining owner and is
	// accepted by a survivor.
	resp, data := f.post(t, "a", "/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit with b draining: %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if strings.HasPrefix(sub.ID, "b-") {
		t.Fatalf("job %s landed on the draining node", sub.ID)
	}

	// The in-flight job on the surviving node completes with the exact
	// golden bytes.
	if got := f.awaitJob(t, "a", sub.ID); !bytes.Equal(got, golden) {
		t.Error("failover job result differs from golden")
	}
	if c := f.counters(t, "a"); c["fleet/failovers"] == 0 {
		t.Errorf("no failover counted: %v", c)
	}

	// The sync path degrades the same way.
	resp, data = f.post(t, "c", "/plan", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden) {
		t.Fatalf("sync plan via c with b draining: %d", resp.StatusCode)
	}
}

func TestNewConfigValidation(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"missing self", Config{Nodes: map[string]string{"a": ""}}},
		{"self not a member", Config{Self: "a", Nodes: map[string]string{"b": "http://x"}}},
		{"empty nodes", Config{Self: "a"}},
		{"bad node id", Config{Self: "a", Nodes: map[string]string{"a": "", "b-2": "http://x"}}},
		{"dash in self", Config{Self: "a-1", Nodes: map[string]string{"a-1": ""}}},
		{"relative peer URL", Config{Self: "a", Nodes: map[string]string{"a": "", "b": "not-a-url"}}},
	}
	for _, c := range cases {
		if _, err := New(svc, c.cfg); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// A valid config builds and exposes the membership gauge.
	rt, err := New(svc, Config{Self: "a", Nodes: map[string]string{"a": "", "b": "http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.ring.nodes; len(got) != 2 {
		t.Errorf("ring over %v, want 2 nodes", got)
	}
	if rt.nodeForJob("b-j00000001") != "b" || rt.nodeForJob("a-j1") != "a" {
		t.Error("nodeForJob misparses prefixed IDs")
	}
	if rt.nodeForJob("j00000001") != "" || rt.nodeForJob("x-y") != "" || rt.nodeForJob("q-j1") != "" {
		t.Error("nodeForJob resolves IDs it should treat as local")
	}
}

// TestAttemptTimeoutFollowsMaxBudget pins the derived per-attempt timeout:
// a forwarded attempt may run the fronted service's MaxBudget plus 30 s,
// so a peer planning to its budget is neither cut off nor retried.
func TestAttemptTimeoutFollowsMaxBudget(t *testing.T) {
	for _, c := range []struct{ maxBudget, want time.Duration }{
		{0, 2*time.Minute + 30*time.Second}, // the service's default budget
		{50 * time.Millisecond, 30*time.Second + 50*time.Millisecond},
		{5 * time.Minute, 5*time.Minute + 30*time.Second},
	} {
		svc := service.New(service.Config{Workers: 1, MaxBudget: c.maxBudget})
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			svc.Shutdown(ctx)
		})
		rt, err := New(svc, Config{Self: "a", Nodes: map[string]string{"a": "", "b": "http://127.0.0.1:1"}})
		if err != nil {
			t.Fatal(err)
		}
		if rt.attemptTimeout != c.want {
			t.Errorf("MaxBudget %v: attempt timeout %v, want %v", c.maxBudget, rt.attemptTimeout, c.want)
		}
	}
}
