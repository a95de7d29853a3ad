package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"copack/internal/service"
	"copack/internal/sweep"
)

// This file is the fleet half of the distributed sweep subsystem: the
// Router implements sweep.Dispatcher (placement via the consistent-hash
// ring, shard forwarding via the breaker-guarded proxy) and keeps the
// fleet-wide admission cache — each peer's last advertised queue depth —
// that lets both sweep dispatch and plan forwarding skip a saturated peer
// before dialing it.

// Dispatcher interface — Self/Preference place sweep units on the same
// ring plan keys use, so a fleet shares one placement function for both
// workloads.

// Self returns this node's ID (sweep.Dispatcher).
func (rt *Router) Self() string { return rt.cfg.Self }

// Preference orders the membership by ring distance from a unit content
// key (sweep.Dispatcher).
func (rt *Router) Preference(key string) []string { return rt.ring.preference(key) }

// RunShard forwards one unit to its owner through the breaker-guarded
// retrying proxy (sweep.Dispatcher). Any failure — open breaker, dead
// node, drain, truncated body, non-200 — surfaces as an error, which the
// coordinator answers by running the unit locally: zero lost units.
func (rt *Router) RunShard(ctx context.Context, node string, u sweep.Unit) (*sweep.ShardResponse, error) {
	body, err := json.Marshal(u)
	if err != nil {
		return nil, err
	}
	res, err := rt.forward(ctx, node, http.MethodPost, "/sweeps/shard", body, "application/json")
	if err != nil {
		return nil, err
	}
	if res.status != http.StatusOK {
		return nil, fmt.Errorf("fleet: shard on node %s answered %d", node, res.status)
	}
	var resp sweep.ShardResponse
	if err := json.Unmarshal(res.body, &resp); err != nil {
		return nil, fmt.Errorf("fleet: decoding shard response from %s: %w", node, err)
	}
	rt.rec.Add("sweeps/shards-forwarded", 1)
	return &resp, nil
}

// Saturated reports whether node's queue cannot take more work right now
// (sweep.Dispatcher). A fresh admission-cache entry answers without a
// hop; a stale one triggers a cheap GET /queuez probe. Probe failures
// answer false — a dead peer is the breaker's and failover's problem, not
// admission's.
func (rt *Router) Saturated(ctx context.Context, node string) bool {
	if sat, fresh := rt.admission.cached(node, rt.now()); fresh {
		if sat {
			rt.rec.Add("admission/cache-saturated", 1)
		}
		return sat
	}
	actx, cancel := context.WithTimeout(ctx, admissionTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, rt.cfg.Nodes[node]+"/queuez", nil)
	if err != nil {
		return false
	}
	req.Header.Set(hopHeader, rt.cfg.Self)
	resp, err := rt.clients[node].Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var qi service.Queuez
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1024)).Decode(&qi); err != nil {
		return false
	}
	rt.rec.Add("admission/probes", 1)
	return rt.admission.note(node, qi, rt.now())
}

// admissionCache remembers each peer's last advertised queue state for
// admissionTTL. Entries arrive two ways: passively, from the
// service.QueueDepthHeader on any forwarded response (backpressure
// answers always carry it), and actively, from /queuez probes. Within the
// TTL a saturated peer is skipped before dialing; after it, the peer gets
// another chance.
type admissionCache struct {
	mu      sync.Mutex
	entries map[string]admissionEntry
}

type admissionEntry struct {
	service.Queuez
	at time.Time
}

func (e admissionEntry) saturated() bool {
	return e.Draining || (e.Capacity > 0 && e.Depth >= e.Capacity)
}

func newAdmissionCache() *admissionCache {
	return &admissionCache{entries: make(map[string]admissionEntry)}
}

// note records a peer's advertised state and returns its saturation.
func (a *admissionCache) note(node string, q service.Queuez, now time.Time) bool {
	e := admissionEntry{Queuez: q, at: now}
	a.mu.Lock()
	a.entries[node] = e
	a.mu.Unlock()
	return e.saturated()
}

// noteHeader records a "depth/capacity" advertisement from a response
// header. Unparseable values are ignored.
func (a *admissionCache) noteHeader(node, v string, draining bool, now time.Time) {
	q := service.Queuez{Draining: draining}
	if _, err := fmt.Sscanf(v, "%d/%d", &q.Depth, &q.Capacity); err != nil {
		return
	}
	a.note(node, q, now)
}

// cached returns (saturated, fresh). A missing or expired entry is not
// fresh; callers then either probe (sweep dispatch) or dial anyway (plan
// forwarding).
func (a *admissionCache) cached(node string, now time.Time) (sat, fresh bool) {
	a.mu.Lock()
	e, ok := a.entries[node]
	a.mu.Unlock()
	if !ok || now.Sub(e.at) > admissionTTL {
		return false, false
	}
	return e.saturated(), true
}

// routeSweepEvents proxies GET /sweeps/{id}/events to the coordinator
// node named by the ID prefix. Unlike forward(), this path streams: SSE
// bytes relay to the client as they arrive, flushed per chunk, with no
// retries — a broken stream surfaces to the client, who reconnects and
// replays the event log from the start (the log is append-only, so a
// replay is a superset of what was seen).
func (rt *Router) routeSweepEvents(w http.ResponseWriter, r *http.Request) {
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
	br := rt.breakers[node]
	if !br.allow() {
		rt.rec.Add("breaker/skipped", 1)
		service.ErrorBody(w, http.StatusBadGateway,
			fmt.Sprintf("sweep %s lives on node %s, currently unreachable (breaker open)", id, node))
		return
	}
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, rt.cfg.Nodes[node]+r.URL.Path, nil)
	if err != nil {
		service.ErrorBody(w, http.StatusInternalServerError, err.Error())
		return
	}
	req.Header.Set(hopHeader, rt.cfg.Self)
	resp, err := rt.clients[node].Do(req)
	if err != nil {
		br.failure()
		rt.rec.Add("sweeps/stream-unreachable", 1)
		service.ErrorBody(w, http.StatusBadGateway,
			fmt.Sprintf("sweep %s lives on node %s, currently unreachable: %v", id, node, err))
		return
	}
	defer resp.Body.Close()
	br.success()
	rt.rec.Add("sweeps/streams-proxied", 1)
	for _, h := range []string{"Content-Type", "Cache-Control", "X-Accel-Buffering"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.Header().Set(nodeHeader, node)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if rerr != nil {
			return
		}
	}
}
