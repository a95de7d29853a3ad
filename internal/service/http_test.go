package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copack"
)

// testServer couples a Server with an httptest front end and cleans both
// up at test end.
type testServer struct {
	svc *Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, cfg Config) *testServer {
	t.Helper()
	return newTestServerLimits(t, cfg, defaultLimits)
}

// newTestServerLimits is newTestServer with the fixed limits replaced.
func newTestServerLimits(t *testing.T, cfg Config, lim limits) *testServer {
	t.Helper()
	svc := newServer(cfg, lim)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return &testServer{svc: svc, ts: ts}
}

func (s *testServer) post(t *testing.T, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(s.ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", path, err)
	}
	return resp, data
}

func (s *testServer) get(t *testing.T, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(s.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", path, err)
	}
	return resp, data
}

// planBody builds a request body for the given design and options.
func planBody(t *testing.T, design string, opts RequestOptions) string {
	t.Helper()
	data, err := json.Marshal(PlanRequest{Design: design, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// submitAndAwait submits an async job and polls it to a terminal result
// body, failing the test on any lost state.
func (s *testServer) submitAndAwait(t *testing.T, body string) (string, []byte) {
	t.Helper()
	resp, data := s.post(t, "/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub submitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	return sub.ID, s.awaitJob(t, sub.ID)
}

// awaitJob polls a job until it is done and returns its result body.
func (s *testServer) awaitJob(t *testing.T, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := s.get(t, "/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status poll %s: %d: %s", id, resp.StatusCode, data)
		}
		var st statusResponse
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("status body: %v", err)
		}
		switch st.State {
		case JobDone:
			resp, body := s.get(t, "/jobs/"+id+"/result")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result %s: %d: %s", id, resp.StatusCode, body)
			}
			return body
		case JobFailed, JobCanceled:
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return nil
}

// TestGoldenByteIdenticalAcrossSchedules is the determinism lock the
// subsystem is built around: the same request body must produce a
// byte-identical solution body whether it runs synchronously or queued,
// alone or among decoys, on one worker or four, computed or cached.
func TestGoldenByteIdenticalAcrossSchedules(t *testing.T) {
	design := testDesign(t, 24, 7)
	req := planBody(t, design, RequestOptions{Seed: 3, Restarts: 2})

	// Reference: a lone synchronous plan on a single-worker server.
	one := newTestServer(t, Config{Workers: 1, QueueDepth: 16})
	resp, golden := one.post(t, "/plan", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync plan: %d: %s", resp.StatusCode, golden)
	}
	if h := resp.Header.Get(cacheHeader); h != "miss" {
		t.Errorf("first plan cache header %q, want miss", h)
	}

	// The same body again must be a cache hit with the exact bytes.
	resp, cached := one.post(t, "/plan", req)
	if h := resp.Header.Get(cacheHeader); h != "hit" {
		t.Errorf("second plan cache header %q, want hit", h)
	}
	if !bytes.Equal(golden, cached) {
		t.Error("cached body differs from computed body")
	}

	// A four-worker server, with the golden request interleaved among
	// shuffled decoy jobs so the queue order differs run to run.
	four := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	rng := rand.New(rand.NewSource(99))
	var bodies []string
	for seed := int64(100); seed < 110; seed++ {
		bodies = append(bodies, planBody(t, design, RequestOptions{Seed: seed, SkipExchange: true}))
	}
	bodies = append(bodies, req, req) // the golden body, twice
	rng.Shuffle(len(bodies), func(i, j int) { bodies[i], bodies[j] = bodies[j], bodies[i] })

	var wg sync.WaitGroup
	results := make([][]byte, len(bodies))
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b string) {
			defer wg.Done()
			ids[i], results[i] = four.submitAndAwait(t, b)
		}(i, b)
	}
	wg.Wait()
	for i, b := range bodies {
		if b == req && !bytes.Equal(results[i], golden) {
			t.Errorf("queued result %s differs from the single-worker sync body", ids[i])
		}
	}

	// And the sync path on the four-worker server agrees too.
	_, syncFour := four.post(t, "/plan", req)
	if !bytes.Equal(syncFour, golden) {
		t.Error("sync body on 4-worker server differs from 1-worker server")
	}

	// The solution inside the body must be a valid, legal plan.
	var pr PlanResponse
	if err := json.Unmarshal(golden, &pr); err != nil {
		t.Fatalf("golden body is not a PlanResponse: %v", err)
	}
	p, a, err := copack.ReadSolution(strings.NewReader(pr.Solution))
	if err != nil || a == nil {
		t.Fatalf("solution text unreadable: %v", err)
	}
	if err := copack.CheckMonotonic(p, a); err != nil {
		t.Errorf("solution is not monotonic-legal: %v", err)
	}
	if pr.Partial {
		t.Error("un-budgeted plan reported partial")
	}
}

// TestConcurrentLoadBackpressure is the acceptance load test: 32
// simultaneous submissions against queue depth 8 must shed load with at
// least one 429, lose zero accepted jobs, and serve repeated bodies from
// the cache.
func TestConcurrentLoadBackpressure(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	// Hold each job for a few milliseconds so the queue genuinely fills
	// while the submissions race in.
	s.svc.testHookJobStart = func() { time.Sleep(5 * time.Millisecond) }

	design := testDesign(t, 24, 7)

	// Warm the cache with one body.
	warm := planBody(t, design, RequestOptions{Seed: 1, SkipExchange: true})
	if resp, body := s.post(t, "/plan", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm plan: %d: %s", resp.StatusCode, body)
	}
	if resp, _ := s.post(t, "/plan", warm); resp.Header.Get(cacheHeader) != "hit" {
		t.Fatal("warm body not served from cache")
	}

	// 32 distinct bodies (different seeds) all at once.
	const n = 32
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []string
		rejected int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := planBody(t, design, RequestOptions{Seed: int64(1000 + i), SkipExchange: true})
			resp, data := s.post(t, "/jobs", body)
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusAccepted:
				var sub submitResponse
				if err := json.Unmarshal(data, &sub); err != nil {
					t.Errorf("submit body: %v", err)
					return
				}
				accepted = append(accepted, sub.ID)
			case http.StatusTooManyRequests:
				rejected++
				if resp.Header.Get("Retry-After") == "" {
					t.Error("429 without Retry-After")
				}
			default:
				t.Errorf("unexpected submit status %d: %s", resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()

	if rejected == 0 {
		t.Error("no submission was rejected: backpressure did not engage")
	}
	if len(accepted)+rejected != n {
		t.Errorf("submissions unaccounted for: %d accepted + %d rejected != %d", len(accepted), rejected, n)
	}
	// Zero lost jobs: every accepted submission reaches done with a
	// valid result body.
	for _, id := range accepted {
		body := s.awaitJob(t, id)
		var pr PlanResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Errorf("job %s: invalid result: %v", id, err)
		}
	}

	// Repeated bodies hit the cache, including on the async path.
	id, _ := s.submitAndAwait(t, warm)
	resp, data := s.get(t, "/jobs/"+id)
	var st statusResponse
	if err := json.Unmarshal(data, &st); err != nil || resp.StatusCode != 200 {
		t.Fatalf("status: %d %v", resp.StatusCode, err)
	}
	if st.Cache != "hit" {
		t.Errorf("repeated async body cache = %q, want hit", st.Cache)
	}

	// The metrics endpoint must agree: hits > 0, and some rejects.
	_, mdata := s.get(t, "/metrics")
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mdata, &snap); err != nil {
		t.Fatalf("/metrics: %v", err)
	}
	if snap.Counters["service/cache/hits"] == 0 {
		t.Error("metrics report zero cache hits")
	}
	if snap.Counters["service/jobs/rejected"] == 0 {
		t.Error("metrics report zero rejected jobs")
	}
	if got := snap.Counters["service/jobs/submitted"] + snap.Counters["service/jobs/rejected"]; got < n {
		t.Errorf("metrics account for %d submissions, want >= %d", got, n)
	}
}

func TestJobLifecycleAndCancel(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	s.svc.testHookJobStart = func() { <-gate }

	design := testDesign(t, 24, 7)
	body1 := planBody(t, design, RequestOptions{Seed: 21, SkipExchange: true})
	body2 := planBody(t, design, RequestOptions{Seed: 22, SkipExchange: true})

	// j1 occupies the only worker (blocked on the gate); j2 waits queued.
	resp, data := s.post(t, "/jobs", body1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1: %d", resp.StatusCode)
	}
	var sub1 submitResponse
	json.Unmarshal(data, &sub1)
	resp, data = s.post(t, "/jobs", body2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 2: %d", resp.StatusCode)
	}
	var sub2 submitResponse
	json.Unmarshal(data, &sub2)

	// j2 is queued; its result is not available yet.
	resp, _ = s.get(t, "/jobs/"+sub2.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result before done: %d, want 409", resp.StatusCode)
	}

	// Cancel j2 while queued: immediately terminal.
	reqDel, _ := http.NewRequest(http.MethodDelete, s.ts.URL+"/jobs/"+sub2.ID, nil)
	dresp, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	ddata, _ := io.ReadAll(dresp.Body)
	dresp.Body.Close()
	var dst statusResponse
	if err := json.Unmarshal(ddata, &dst); err != nil {
		t.Fatal(err)
	}
	if dst.State != JobCanceled {
		t.Errorf("canceled queued job state = %s", dst.State)
	}

	// Unknown job IDs 404 on every job route.
	for _, path := range []string{"/jobs/zzz", "/jobs/zzz/result"} {
		if resp, _ := s.get(t, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}

	// Release the worker: j1 completes; j2 stays canceled and its
	// result endpoint reports that.
	release()
	s.awaitJob(t, sub1.ID)
	resp, _ = s.get(t, "/jobs/"+sub2.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("canceled result status %d, want 409", resp.StatusCode)
	}
}

// TestCachedAsyncJobsArePruned submits more cache-hit jobs than the
// retention bound: jobs born done must age out like computed ones, oldest
// first, or the job map grows without limit under repeated submissions.
func TestCachedAsyncJobsArePruned(t *testing.T) {
	const retained, extra = 4, 3
	s := newTestServerLimits(t, Config{Workers: 1}, limits{jobsRetained: retained, retryAfter: time.Second})
	body := planBody(t, testDesign(t, 16, 7), RequestOptions{Seed: 5, SkipExchange: true})
	if resp, data := s.post(t, "/plan", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm plan: %d: %s", resp.StatusCode, data)
	}
	var ids []string
	for i := 0; i < retained+extra; i++ {
		resp, data := s.post(t, "/jobs", body)
		var sub submitResponse
		if err := json.Unmarshal(data, &sub); err != nil || resp.StatusCode != http.StatusAccepted || sub.State != JobDone {
			t.Fatalf("cached submit %d: %d %v: %s", i, resp.StatusCode, err, data)
		}
		ids = append(ids, sub.ID)
	}
	for i, id := range ids {
		want := http.StatusOK
		if i < extra {
			want = http.StatusNotFound
		}
		if resp, _ := s.get(t, "/jobs/"+id); resp.StatusCode != want {
			t.Errorf("job %s (submitted %d of %d): status %d, want %d", id, i+1, len(ids), resp.StatusCode, want)
		}
	}
}

// TestFinishedJobReleasesContextAndSpec checks that a job reaching a
// terminal state — computed, canceled while queued, or born done from the
// cache — no longer holds its parsed problem, and that a computed job's
// context is canceled rather than left registered under the server's.
func TestFinishedJobReleasesContextAndSpec(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	s.svc.testHookJobStart = func() { <-gate }
	design := testDesign(t, 16, 7)
	body := planBody(t, design, RequestOptions{Seed: 6, SkipExchange: true})

	submit := func(body string) string {
		t.Helper()
		resp, data := s.post(t, "/jobs", body)
		var sub submitResponse
		if err := json.Unmarshal(data, &sub); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d %v: %s", resp.StatusCode, err, data)
		}
		return sub.ID
	}
	computed := submit(body)
	canceled := submit(planBody(t, design, RequestOptions{Seed: 7, SkipExchange: true}))
	req, _ := http.NewRequest(http.MethodDelete, s.ts.URL+"/jobs/"+canceled, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	release()
	s.awaitJob(t, computed)
	cached := submit(body)

	for _, id := range []string{computed, canceled, cached} {
		j := s.svc.lookup(id, planJob)
		if j == nil {
			t.Fatalf("job %s forgotten", id)
		}
		if err := j.wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		spec := j.spec
		j.mu.Unlock()
		if spec != nil {
			t.Errorf("job %s still holds its parsed problem after finishing", id)
		}
		if j.ctx != nil && j.ctx.Err() == nil {
			t.Errorf("job %s context still live after finishing", id)
		}
	}
	if j := s.svc.lookup(computed, planJob); j.ctx == nil {
		t.Error("computed job has no context")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	svc := New(Config{Workers: 1, QueueDepth: 8})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	s := &testServer{svc: svc, ts: ts}

	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	svc.testHookJobStart = func() { <-gate }

	design := testDesign(t, 24, 7)
	// One job holds the worker, one waits in the queue; both must reach
	// a terminal state through the drain.
	resp, data := s.post(t, "/jobs", planBody(t, design, RequestOptions{Seed: 31, SkipExchange: true}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var sub1 submitResponse
	json.Unmarshal(data, &sub1)
	resp, data = s.post(t, "/jobs", planBody(t, design, RequestOptions{Seed: 32, SkipExchange: true}))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	var sub2 submitResponse
	json.Unmarshal(data, &sub2)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		done <- svc.Shutdown(ctx)
	}()

	// Once draining, every intake rejects with 503.
	waitFor(t, func() bool { return svc.draining() })
	if resp, _ := s.get(t, "/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	if resp, _ := s.post(t, "/plan", planBody(t, design, RequestOptions{Seed: 33})); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/plan while draining: %d, want 503", resp.StatusCode)
	}
	if resp, _ := s.post(t, "/jobs", planBody(t, design, RequestOptions{Seed: 34})); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/jobs while draining: %d, want 503", resp.StatusCode)
	}

	release()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Both jobs are terminal: nothing was lost in the drain.
	for _, id := range []string{sub1.ID, sub2.ID} {
		j := svc.lookup(id, planJob)
		if j == nil {
			t.Fatalf("job %s forgotten during drain", id)
		}
		if st := j.snapshot().State; !st.terminal() {
			t.Errorf("job %s state %s after drain, want terminal", id, st)
		}
	}

	// Shutdown is idempotent.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := svc.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	resp, body := s.get(t, "/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("ok")) {
		t.Errorf("healthz: %d %s", resp.StatusCode, body)
	}
	resp, body = s.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	// Two identical snapshots must be byte-identical (deterministic key
	// order) as long as no traffic happens in between.
	_, body2 := s.get(t, "/metrics")
	var a, b map[string]any
	if err := json.Unmarshal(body, &a); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if err := json.Unmarshal(body2, &b); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("idle metrics snapshots differ: %s vs %s", body, body2)
	}
}

func TestPlanRequestValidationOverHTTP(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 4096})
	design := testDesign(t, 24, 7)
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"malformed", "{nope", http.StatusBadRequest},
		{"bad design", planBody(t, "circuit only", RequestOptions{}), http.StatusBadRequest},
		{"bad algorithm", "{\"design\": \"x\", \"options\": {\"algorithm\": \"greedy\"}}", http.StatusBadRequest},
		{"oversized", planBody(t, design+strings.Repeat("#pad\n", 4096), RequestOptions{}), http.StatusRequestEntityTooLarge},
		{"budget over cap", planBody(t, design, RequestOptions{BudgetMS: 1 << 40}), http.StatusBadRequest},
		{"retired portfolio", fmt.Sprintf(`{"design": %q, "options": {"portfolio": {"arms": [{"name": "a"}], "budget": 8}}}`, design),
			http.StatusBadRequest},
	}
	for _, c := range cases {
		for _, path := range []string{"/plan", "/jobs"} {
			resp, data := s.post(t, path, c.body)
			if resp.StatusCode != c.status {
				t.Errorf("%s %s: %d, want %d (%s)", c.name, path, resp.StatusCode, c.status, data)
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
				t.Errorf("%s %s: error body %q not JSON {error}", c.name, path, data)
			}
			if c.name == "retired portfolio" && !strings.Contains(e["error"], "restarts") {
				t.Errorf("%s %s: error %q does not name restarts", c.name, path, e["error"])
			}
		}
	}
}

// Non-finite package geometry is an input error: each design is answered
// 400 on both routes before any job reaches the queue, instead of running
// both IR solves to their iteration cap on NaN voltages.
func TestNonFiniteGeometryRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var started atomic.Int32
	s.svc.testHookJobStart = func() { started.Add(1) }
	design := testDesign(t, 24, 7)
	ball := regexp.MustCompile(`(?m)^spec ball .*$`)
	if !ball.MatchString(design) {
		t.Fatal("test design has no spec ball line")
	}
	for _, v := range []string{"NaN", "Inf", "1e308"} {
		body := planBody(t, ball.ReplaceAllString(design, "spec ball "+v+" 2 via 0.1"), RequestOptions{})
		for _, path := range []string{"/plan", "/jobs"} {
			resp, data := s.post(t, path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("ball %s %s: %d, want 400 (%s)", v, path, resp.StatusCode, data)
			}
		}
	}
	if n := started.Load(); n != 0 {
		t.Errorf("%d jobs reached the queue", n)
	}
}

// A design with no power net has no supply for the IR-drop model. It is an
// input error, answered 400 on both routes and with or without the exchange
// step, before any job reaches the queue — not a 500 from the IR solve
// after assignment and routing already ran.
func TestNoPowerNetRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	var started atomic.Int32
	s.svc.testHookJobStart = func() { started.Add(1) }
	design := strings.ReplaceAll(testDesign(t, 24, 7), " power\n", " signal\n")
	if strings.Contains(design, " power") {
		t.Fatal("test design still has a power net")
	}
	for _, skip := range []bool{false, true} {
		body := planBody(t, design, RequestOptions{SkipExchange: skip})
		for _, path := range []string{"/plan", "/jobs"} {
			resp, data := s.post(t, path, body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("skip=%v %s: %d, want 400 (%s)", skip, path, resp.StatusCode, data)
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e["error"], "no power net") {
				t.Errorf("skip=%v %s: error body %q does not name the missing power net", skip, path, data)
			}
		}
	}
	if n := started.Load(); n != 0 {
		t.Errorf("%d jobs reached the queue", n)
	}
}

func TestBudgetedPlanReportsPartialAndSkipsCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// An effectively-zero budget forces a partial result: the planner
	// returns the congestion-driven assignment as best-so-far.
	body := planBody(t, testDesign(t, 48, 7), RequestOptions{Seed: 5, BudgetMS: 1, Restarts: 4})
	resp, data := s.post(t, "/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budgeted plan: %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Partial {
		t.Skip("instance finished inside 1ms; nothing to assert")
	}
	if pr.Stopped == "" {
		t.Error("partial response without a stop reason")
	}
	// Partial results must not poison the cache.
	if resp, _ := s.post(t, "/plan", body); resp.Header.Get(cacheHeader) == "hit" {
		t.Error("partial result was served from cache")
	}
}

// A request with no budget_ms still plans under the server's MaxBudget.
// A plan of 64 restarts that MaxBudget is far too short for answers 200
// with a partial plan once MaxBudget runs out, and that partial result is
// not cached.
func TestRunawayScheduleStopsAtMaxBudget(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBudget: time.Millisecond})
	body := planBody(t, testDesign(t, 96, 7), RequestOptions{Restarts: maxRestarts})
	for i := 0; i < 2; i++ {
		resp, data := s.post(t, "/plan", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("runaway plan: %d: %s", resp.StatusCode, data)
		}
		var pr PlanResponse
		if err := json.Unmarshal(data, &pr); err != nil {
			t.Fatal(err)
		}
		if !pr.Partial {
			t.Error("runaway schedule finished inside MaxBudget")
		}
		if got := resp.Header.Get(cacheHeader); got != "miss" {
			t.Errorf("post %d: %s = %q, want miss", i+1, cacheHeader, got)
		}
	}
}

func TestMetricsRequestedInBody(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	body := planBody(t, testDesign(t, 24, 7), RequestOptions{Seed: 3, SkipExchange: true, Metrics: true})
	resp, data := s.post(t, "/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d: %s", resp.StatusCode, data)
	}
	var pr PlanResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Metrics == nil || len(pr.Metrics.Phases) == 0 {
		t.Error("metrics requested but missing from response")
	}
	// Without the flag the response carries none.
	plain := planBody(t, testDesign(t, 24, 7), RequestOptions{Seed: 3, SkipExchange: true})
	_, data = s.post(t, "/plan", plain)
	var pr2 PlanResponse
	if err := json.Unmarshal(data, &pr2); err != nil {
		t.Fatal(err)
	}
	if pr2.Metrics != nil {
		t.Error("metrics present without being requested")
	}
}

// waitFor polls cond until true or the test deadline approaches.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}
