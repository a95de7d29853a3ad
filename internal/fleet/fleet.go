// Package fleet turns independent planning-service nodes into a
// fault-tolerant cluster with static membership and no coordination
// traffic. A consistent-hash ring over the service's content-addressed
// plan keys assigns every request an owner node, so the fleet shares one
// logical result cache: whichever node a client happens to hit, the
// request is forwarded to the node most likely to already hold its
// bytes.
//
// The forwarding proxy is built to degrade, not to fail:
//
//   - every hop runs under a per-attempt timeout and bounded exponential
//     backoff with seeded jitter;
//   - a per-peer circuit breaker (consecutive-failure count, cooldown,
//     half-open probe) stops a dead node from taxing every request with
//     its timeout;
//   - when the owner is unreachable the request fails over around the
//     ring to the next successor, and — since the local node is always
//     somewhere on that ring walk — degrades to local computation as the
//     last resort. A single surviving node answers everything.
//
// Failover never changes an answer. A plan is a pure function of the
// canonical request (see internal/service), so the response body is
// byte-identical no matter which node computes it; the ring only decides
// where the cache hit lives. The chaos test in chaos_test.go locks this
// down by killing nodes mid-load via internal/faultinject's network
// fault points (connection refused, latency, mid-body truncation) — all
// deterministic, no real flakiness.
//
// Async jobs are node-local state: a job ID is prefixed with the node
// that accepted it ("b-j00000042"), and the router forwards polls to
// that node by prefix. If the node dies, its in-flight job state dies
// with it — polls answer 502 until it returns — but new submissions keep
// flowing to the survivors. DESIGN.md "The failure model" spells out the
// full degradation order.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"copack/internal/faultinject"
	"copack/internal/obs"
	"copack/internal/service"
)

// Header names the router adds. The hop header marks a forwarded request
// so the receiving node serves it locally instead of re-forwarding (loop
// prevention even under inconsistent membership); the node header tells
// the client which node actually answered — diagnostic only, never part
// of the body, so byte-identity is untouched.
const (
	hopHeader  = "X-Copack-Fleet-Hop"
	nodeHeader = "X-Copack-Node"
)

// Config describes one node's view of the fleet. Membership is static:
// every node is configured with the same ID set (the URLs may differ,
// e.g. private addresses), and a membership change is a rolling restart.
type Config struct {
	// Self is this node's ID. Required; must be a key of Nodes.
	Self string
	// Nodes maps every fleet member's ID to its base URL
	// ("http://host:port"). Self's URL is unused and may be empty.
	Nodes map[string]string
	// Seed drives the backoff jitter. Jitter only shapes retry timing,
	// never results, but seeding it keeps test schedules replayable.
	Seed int64
	// Recorder receives the router's counters under the fleet/ prefix.
	// Wire the service's MetricsRecorder here so retry/failover/breaker
	// activity shows up in the node's own /metrics.
	Recorder obs.Recorder
}

const (
	// replicas is the number of virtual ring points per node. Every node
	// must use the same count, or the nodes disagree on owners.
	replicas = 64
	// admissionTTL is how long a peer's advertised queue depth stays
	// fresh in the admission cache; within it a saturated peer is skipped
	// before dialing.
	admissionTTL = time.Second
	// admissionTimeout bounds the GET /queuez probe sweep dispatch sends
	// when the admission cache is stale.
	admissionTimeout = 2 * time.Second
	// attemptSlack is how far past the fronted service's MaxBudget a
	// forwarded attempt may run. A peer plans a request under the same
	// MaxBudget, so an attempt outlives the slowest in-budget plan and
	// its reply.
	attemptSlack = 30 * time.Second
)

// retryPolicy bounds the retries and breakers of peer traffic. New uses
// defaultRetry; tests shorten it through newRouter.
type retryPolicy struct {
	// attempts bounds how many times one peer is tried per request
	// before failing over.
	attempts int
	// base and max bound the exponential backoff between attempts: the
	// delay before attempt n is base·2^(n-1) capped at max, halved and
	// re-filled with seeded jitter.
	base, max time.Duration
	// breakerThreshold consecutive failures open a peer's circuit
	// breaker; it stays open breakerCooldown before admitting a
	// half-open probe.
	breakerThreshold int
	breakerCooldown  time.Duration
}

var defaultRetry = retryPolicy{
	attempts:         3,
	base:             25 * time.Millisecond,
	max:              time.Second,
	breakerThreshold: 5,
	breakerCooldown:  10 * time.Second,
}

// ValidNodeID reports whether id is usable as a fleet node ID: non-empty
// and free of the characters the fleet gives meaning ("-" separates the
// node prefix in job IDs; "=", "," appear in the -peers flag syntax; "/"
// in fault-point names).
func ValidNodeID(id string) error {
	if id == "" {
		return errors.New("fleet: node ID must not be empty")
	}
	if strings.ContainsAny(id, "-=,/ \t\r\n") {
		return fmt.Errorf("fleet: node ID %q may not contain '-', '=', ',', '/' or whitespace", id)
	}
	return nil
}

// Router fronts one node's planning service with the fleet's routing and
// failover logic. Create one with New and mount Handler in place of the
// service's own handler. All methods are safe for concurrent use.
type Router struct {
	cfg   Config
	retry retryPolicy
	// attemptTimeout bounds each forwarded attempt's wall clock.
	attemptTimeout time.Duration
	local          *service.Server
	localH         http.Handler
	ring           *ring
	breakers       map[string]*breaker
	clients        map[string]*http.Client
	rec            obs.Recorder
	admission      *admissionCache

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	now func() time.Time // breaker clock; replaced in tests
}

// New validates cfg and builds the router over the local service. A
// forwarded attempt may run the service's MaxBudget plus 30 s.
func New(local *service.Server, cfg Config) (*Router, error) {
	return newRouter(local, cfg, defaultRetry)
}

func newRouter(local *service.Server, cfg Config, retry retryPolicy) (*Router, error) {
	if err := ValidNodeID(cfg.Self); err != nil {
		return nil, err
	}
	if len(cfg.Nodes) == 0 {
		return nil, errors.New("fleet: Config.Nodes is empty")
	}
	if _, ok := cfg.Nodes[cfg.Self]; !ok {
		return nil, fmt.Errorf("fleet: self %q is not in Nodes", cfg.Self)
	}
	rt := &Router{
		cfg:            cfg,
		retry:          retry,
		attemptTimeout: local.MaxBudget() + attemptSlack,
		local:          local,
		localH:         local.Handler(),
		breakers:       make(map[string]*breaker, len(cfg.Nodes)),
		clients:        make(map[string]*http.Client, len(cfg.Nodes)),
		rec:            obs.WithPrefix(obs.OrNop(cfg.Recorder), "fleet/"),
		admission:      newAdmissionCache(),
		rng:            rand.New(rand.NewSource(cfg.Seed)),
		now:            time.Now,
	}
	ids := make([]string, 0, len(cfg.Nodes))
	for id, base := range cfg.Nodes {
		if err := ValidNodeID(id); err != nil {
			return nil, err
		}
		ids = append(ids, id)
		if id == cfg.Self {
			continue
		}
		u, err := url.Parse(base)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: peer %q URL %q is not an absolute URL", id, base)
		}
		rt.breakers[id] = newBreaker(retry.breakerThreshold, retry.breakerCooldown, func() time.Time { return rt.now() })
		rt.clients[id] = &http.Client{Transport: faultTransport{peer: id}}
	}
	rt.ring = newRing(ids, replicas)
	rt.rec.Set("nodes", float64(len(ids)))
	// The router is the local service's sweep dispatcher: sweep units
	// place on the same ring as plan keys and forward through the same
	// breakers.
	local.Sweeps().SetDispatcher(rt)
	return rt, nil
}

// Handler returns the node's fleet-aware HTTP surface. Plan submissions
// are routed by content address; job and sweep polls are routed by the
// node prefix in the ID; sweep event streams get a dedicated streaming
// passthrough; everything else (healthz, metrics, queuez, new sweep
// submissions — the receiving node is the coordinator — and forwarded
// shard hops) is served locally.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /plan", rt.routeKeyed)
	mux.HandleFunc("POST /jobs", rt.routeKeyed)
	mux.HandleFunc("GET /jobs/{id}", rt.routeJob)
	mux.HandleFunc("GET /jobs/{id}/result", rt.routeJob)
	mux.HandleFunc("DELETE /jobs/{id}", rt.routeJob)
	mux.HandleFunc("GET /sweeps/{id}", rt.routeJob)
	mux.HandleFunc("GET /sweeps/{id}/result", rt.routeJob)
	mux.HandleFunc("DELETE /sweeps/{id}", rt.routeJob)
	mux.HandleFunc("GET /sweeps/{id}/events", rt.routeSweepEvents)
	mux.Handle("/", rt.localH)
	return mux
}

// writeError mirrors the service's JSON error body shape so clients see
// one error format whichever layer produced it.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(body, '\n'))
}

// routeKeyed handles POST /plan and POST /jobs: buffer the body, derive
// its content address, and walk the ring's preference list — owner
// first, failover successors next, local computation whenever the walk
// reaches this node.
func (rt *Router) routeKeyed(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(hopHeader) != "" {
		// A peer already routed this request to us; serve it locally no
		// matter what our ring says, so routing disagreements can never
		// loop.
		rt.rec.Add("hops/received", 1)
		rt.serveLocal(w, r, nil)
		return
	}
	body, err := rt.local.ReadBody(w, r)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return
	}
	key, err := rt.local.SpecKey(body)
	if err != nil {
		// Unroutable bodies are invalid bodies; let the local service
		// render its canonical (deterministic) error response.
		rt.rec.Add("requests/unroutable", 1)
		rt.serveLocal(w, r, body)
		return
	}
	prefs := rt.ring.preference(key)
	for i, node := range prefs {
		if node == rt.cfg.Self {
			if i == 0 {
				rt.rec.Add("serve/local-owner", 1)
			} else {
				rt.rec.Add("serve/failover-local", 1)
			}
			rt.serveLocal(w, r, body)
			return
		}
		if sat, fresh := rt.admission.cached(node, rt.now()); fresh && sat {
			// The peer's own advertisement says its queue is full or
			// draining: skip it before dialing and let the walk fall to
			// the next preference (ultimately local). When the TTL lapses
			// the peer gets another chance.
			rt.rec.Add("admission/skipped", 1)
			continue
		}
		res, err := rt.forward(r.Context(), node, r.Method, r.URL.Path, body, r.Header.Get("Content-Type"))
		if err != nil {
			rt.rec.Add("failovers", 1)
			continue
		}
		if i == 0 {
			rt.rec.Add("serve/forwarded-owner", 1)
		} else {
			rt.rec.Add("serve/forwarded-failover", 1)
		}
		rt.writePeer(w, node, res)
		return
	}
	// Unreachable while self is a member, but degrade to local anyway.
	rt.rec.Add("serve/failover-local", 1)
	rt.serveLocal(w, r, body)
}

// routeJob handles the /jobs/{id} family: job state lives on the node
// that accepted the submission, named by the ID's prefix. There is no
// failover target for another node's job state — on exhaustion the
// client gets 502 and retries later.
func (rt *Router) routeJob(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(hopHeader) != "" {
		rt.rec.Add("hops/received", 1)
		rt.serveLocal(w, r, nil)
		return
	}
	id := r.PathValue("id")
	node := rt.nodeForJob(id)
	if node == "" || node == rt.cfg.Self {
		rt.serveLocal(w, r, nil)
		return
	}
	res, err := rt.forward(r.Context(), node, r.Method, r.URL.Path, nil, "")
	if err != nil {
		rt.rec.Add("jobs/peer-unreachable", 1)
		writeError(w, http.StatusBadGateway,
			fmt.Sprintf("job %s lives on node %s, currently unreachable: %v", id, node, err))
		return
	}
	rt.writePeer(w, node, res)
}

// nodeForJob extracts the owning node from a prefixed job or sweep ID
// ("b-j00000042" → "b", "b-s00000007" → "b"). Unprefixed or
// unknown-prefix IDs are treated as local, where the service's own 404 is
// the right answer.
func (rt *Router) nodeForJob(id string) string {
	node, rest, ok := strings.Cut(id, "-")
	if !ok || (!strings.HasPrefix(rest, "j") && !strings.HasPrefix(rest, "s")) {
		return ""
	}
	if _, known := rt.cfg.Nodes[node]; !known {
		return ""
	}
	return node
}

// serveLocal delegates to the local service handler, replaying the
// already-buffered body when there is one.
func (rt *Router) serveLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	w.Header().Set(nodeHeader, rt.cfg.Self)
	if body != nil {
		r = r.Clone(r.Context())
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
	}
	rt.localH.ServeHTTP(w, r)
}

// peerResponse is one fully-buffered response from a peer. Buffering
// before writing anything to the client is what makes mid-body
// truncation retryable: the client never sees a corrupt prefix.
type peerResponse struct {
	status int
	header http.Header
	body   []byte
}

// writePeer relays a peer's response to the client.
func (rt *Router) writePeer(w http.ResponseWriter, node string, res *peerResponse) {
	for _, h := range []string{"Content-Type", "X-Copack-Cache", "Location", "Retry-After", queueDepthHeader} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(nodeHeader, node)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// errUnavailable marks a peer that answered but cannot take the work
// (502/503: draining or dying). Retrying the same peer is pointless —
// fail over immediately.
var errUnavailable = errors.New("fleet: peer unavailable")

// forward sends one request to node with retry/backoff under the peer's
// circuit breaker. It returns the buffered response, or an error after
// the breaker, the attempt budget, or a fail-fast condition gives up.
func (rt *Router) forward(ctx context.Context, node, method, path string, body []byte, contentType string) (*peerResponse, error) {
	br := rt.breakers[node]
	if !br.allow() {
		rt.rec.Add("breaker/skipped", 1)
		return nil, fmt.Errorf("fleet: breaker open for node %s", node)
	}
	var lastErr error
	for attempt := 1; ; attempt++ {
		res, err := rt.attempt(ctx, node, method, path, body, contentType)
		if err == nil {
			br.success()
			return res, nil
		}
		lastErr = err
		if br.failure() {
			rt.rec.Add("breaker/opened", 1)
		}
		if errors.Is(err, errUnavailable) || attempt >= rt.retry.attempts || ctx.Err() != nil {
			return nil, lastErr
		}
		rt.rec.Add("retries", 1)
		if err := rt.backoff(ctx, attempt); err != nil {
			return nil, err
		}
	}
}

// attempt performs one forwarded exchange under the per-attempt timeout
// and buffers the full response.
func (rt *Router) attempt(ctx context.Context, node, method, path string, body []byte, contentType string) (*peerResponse, error) {
	actx, cancel := context.WithTimeout(ctx, rt.attemptTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, rt.cfg.Nodes[node]+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set(hopHeader, rt.cfg.Self)
	resp, err := rt.clients[node].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("fleet: reading response from %s: %w", node, err)
	}
	// Backpressure responses advertise the peer's queue depth; remember
	// it so subsequent routing can skip the peer before dialing.
	if v := resp.Header.Get(queueDepthHeader); v != "" {
		rt.admission.noteHeader(node, v, resp.StatusCode == http.StatusServiceUnavailable, rt.now())
	}
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		return nil, fmt.Errorf("%w: node %s answered %d", errUnavailable, node, resp.StatusCode)
	}
	return &peerResponse{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// backoff sleeps the bounded-exponential, seeded-jitter delay before
// retry attempt+1: base·2^(attempt-1) capped at max, then half fixed and
// half jitter so synchronized clients desynchronize.
func (rt *Router) backoff(ctx context.Context, attempt int) error {
	d := rt.retry.base << (attempt - 1)
	if d > rt.retry.max || d <= 0 {
		d = rt.retry.max
	}
	rt.mu.Lock()
	jitter := time.Duration(rt.rng.Int63n(int64(d)/2 + 1))
	rt.mu.Unlock()
	t := time.NewTimer(d/2 + jitter)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// truncateAfterBytes is how much of a response body an injected
// truncation fault lets through before the simulated connection drop.
const truncateAfterBytes = 16

// faultTransport wraps http.DefaultTransport with the deterministic
// network fault points, fired in connection order: dial, latency,
// truncation.
type faultTransport struct{ peer string }

func (ft faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if err := faultinject.Fire(faultinject.FleetDial(ft.peer)); err != nil {
		return nil, fmt.Errorf("dial %s: connection refused (injected): %w", ft.peer, err)
	}
	if err := faultinject.Fire(faultinject.FleetLatency(ft.peer)); err != nil {
		return nil, fmt.Errorf("request to %s: %w (injected: %v)", ft.peer, context.DeadlineExceeded, err)
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil || resp == nil {
		return resp, err
	}
	if err := faultinject.Fire(faultinject.FleetTruncate(ft.peer)); err != nil {
		resp.Body = &truncatedBody{r: resp.Body, remaining: truncateAfterBytes}
	}
	return resp, nil
}

// truncatedBody yields a short prefix of the real body and then fails
// the way a dropped connection does.
type truncatedBody struct {
	r         io.ReadCloser
	remaining int
}

func (t *truncatedBody) Read(p []byte) (int, error) {
	if t.remaining <= 0 {
		return 0, io.ErrUnexpectedEOF
	}
	if len(p) > t.remaining {
		p = p[:t.remaining]
	}
	n, err := t.r.Read(p)
	t.remaining -= n
	return n, err
}

func (t *truncatedBody) Close() error { return t.r.Close() }
