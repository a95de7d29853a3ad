package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

// CacheHeader is the cache-status header of a plan body: "hit" when the
// body replayed from a cache, "miss" when it was computed for this
// request.
const CacheHeader = "X-Copack-Cache"

// Handler returns the service's HTTP surface:
//
//	GET    /healthz          liveness (503 while draining)
//	GET    /metrics          deterministic service metrics snapshot
//	POST   /plan             synchronous fast path: plan in-request
//	POST   /jobs             async submit → 202 {"id": ...}
//	GET    /jobs/{id}        job status
//	GET    /jobs/{id}/result the plan body once the job is done
//	DELETE /jobs/{id}        cancel (queued: immediate; running: the
//	                         planner stops at its next checkpoint and the
//	                         job completes with a partial result)
//	GET    /queuez           queue depth/capacity (fleet admission signal)
//	POST   /sweeps           submit a distributed sweep → 202 {"id": ...}
//	GET    /sweeps/{id}        sweep status (units done/total)
//	GET    /sweeps/{id}/events SSE progress stream with heartbeats and a
//	                           terminal done/failed/canceled event
//	GET    /sweeps/{id}/result the deterministic reduced sweep body
//	DELETE /sweeps/{id}        cancel the sweep
//	POST   /sweeps/shard       internal fleet hop: run one sweep unit
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /queuez", s.handleQueuez)
	mux.HandleFunc("POST /plan", s.handlePlan)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJobStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("POST /sweeps", s.handleSweepSubmit)
	mux.HandleFunc("POST /sweeps/shard", s.handleSweepShard)
	mux.HandleFunc("GET /sweeps/{id}", s.handleSweepStatus)
	mux.HandleFunc("GET /sweeps/{id}/events", s.handleSweepEvents)
	mux.HandleFunc("GET /sweeps/{id}/result", s.handleSweepResult)
	mux.HandleFunc("DELETE /sweeps/{id}", s.handleSweepCancel)
	return mux
}

// ErrorBody writes the JSON error payload, {"error": msg}, with the given
// status: the one error body of every node, whether the service or the
// fleet router answers.
func ErrorBody(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(body, '\n'))
}

// WriteError maps an error from the request layer, such as ReadBody's,
// onto the response; *httpError values carry their own status, anything
// else is a 500.
func WriteError(w http.ResponseWriter, err error) {
	var he *httpError
	if errors.As(err, &he) {
		ErrorBody(w, he.status, he.msg)
		return
	}
	ErrorBody(w, http.StatusInternalServerError, err.Error())
}

// writeDraining refuses work during a drain: 503 plus the queue
// advertisement, so fleet peers stop sending work here.
func (s *Server) writeDraining(w http.ResponseWriter) {
	s.setQueueHeader(w)
	ErrorBody(w, http.StatusServiceUnavailable, "server is shutting down")
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.setQueueHeader(w)
		ErrorBody(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write([]byte("{\"status\":\"ok\"}\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	body, err := s.metrics.Snapshot().Marshal()
	if err != nil {
		ErrorBody(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

// decodeSpec runs the shared front half of both plan entry points: read
// the body once under the byte cap, resolve its cache key (from the key
// memo when these exact bytes were seen before) and probe the result
// cache exactly once, then, on a miss, the copy LRU. A hit in either
// returns the cached body and no spec; a miss returns the full spec. A
// memo hit whose result was evicted re-parses the buffered bytes instead
// of probing again, so service/cache/hits+misses count validated requests
// one to one.
func (s *Server) decodeSpec(w http.ResponseWriter, r *http.Request) (spec *planSpec, cached []byte, ok bool) {
	s.rec.Add("requests/"+r.URL.Path[1:], 1)
	raw, err := s.ReadBody(w, r)
	if err != nil {
		WriteError(w, err)
		return nil, nil, false
	}
	key, spec, err := s.resolveKey(raw)
	if err != nil {
		WriteError(w, err)
		return nil, nil, false
	}
	if body, hit := s.cache.Get(key); hit {
		return nil, body, true
	}
	if body, hit := s.copies.Get(key); hit {
		return nil, body, true
	}
	if spec == nil {
		if spec, err = s.parseSpec(raw); err != nil {
			WriteError(w, err)
			return nil, nil, false
		}
	}
	return spec, nil, true
}

// handlePlan is the synchronous fast path: the plan runs on the request
// goroutine under the client's own context, so an abandoning client
// cancels the work at the planner's next checkpoint. Concurrency is
// bounded by a semaphore; beyond it the server sheds load with 429 rather
// than stacking goroutines.
func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if s.draining() {
		s.writeDraining(w)
		return
	}
	spec, cached, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	if cached != nil {
		s.writePlanBody(w, cached, true)
		return
	}
	select {
	case s.syncSem <- struct{}{}:
		defer func() { <-s.syncSem }()
	default:
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.setQueueHeader(w)
		ErrorBody(w, http.StatusTooManyRequests, "too many concurrent /plan requests; retry or use POST /jobs")
		return
	}
	// The plan obeys both the client (request context: disconnect
	// cancels) and the server (base context: shutdown drains).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	body, status, errMsg := s.plan(ctx, spec)
	if errMsg != "" {
		ErrorBody(w, status, errMsg)
		return
	}
	s.writePlanBody(w, body, false)
}

func (s *Server) writePlanBody(w http.ResponseWriter, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	if hit {
		w.Header().Set(CacheHeader, "hit")
	} else {
		w.Header().Set(CacheHeader, "miss")
	}
	w.Write(body)
}

// submitResponse is the 202 body of POST /jobs.
type submitResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	StatusURL string   `json:"status_url"`
	ResultURL string   `json:"result_url"`
}

// handleSubmit enqueues an async job. Cache hits skip the queue entirely:
// the job is born done and polling it returns the cached body.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, cached, ok := s.decodeSpec(w, r)
	if !ok {
		return
	}
	j := newJob(s.baseCtx, planJob)
	if cached != nil {
		j.cacheHit = true
		j.mu.Lock()
		j.settle(JobDone, http.StatusOK, cached, "")
		j.mu.Unlock()
	} else {
		j.spec = spec
	}
	switch err := s.submit(j); {
	case errors.Is(err, errQueueFull):
		s.rec.Add("jobs/rejected", 1)
		w.Header().Set("Retry-After", s.retryAfterSeconds())
		s.setQueueHeader(w)
		ErrorBody(w, http.StatusTooManyRequests, "job queue full; retry later")
		return
	case errors.Is(err, errDraining):
		s.writeDraining(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/jobs/"+j.id)
	w.WriteHeader(http.StatusAccepted)
	view := j.snapshot()
	body, _ := json.Marshal(submitResponse{
		ID:        view.ID,
		State:     view.State,
		StatusURL: "/jobs/" + view.ID,
		ResultURL: "/jobs/" + view.ID + "/result",
	})
	w.Write(append(body, '\n'))
}

// statusResponse is the body of GET /jobs/{id}.
type statusResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Error     string   `json:"error,omitempty"`
	Cache     string   `json:"cache,omitempty"`
	ResultURL string   `json:"result_url,omitempty"`
}

// jobFromPath looks up the path's job of the given kind, answering 404
// when there is none.
func (s *Server) jobFromPath(w http.ResponseWriter, r *http.Request, kind jobKind) *job {
	j := s.lookup(r.PathValue("id"), kind)
	if j == nil {
		if kind == sweepJob {
			ErrorBody(w, http.StatusNotFound, "unknown sweep id")
		} else {
			ErrorBody(w, http.StatusNotFound, "unknown job id")
		}
	}
	return j
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r, planJob)
	if j == nil {
		return
	}
	view := j.snapshot()
	resp := statusResponse{ID: view.ID, State: view.State, Error: view.ErrMsg}
	if view.State == JobDone {
		resp.ResultURL = "/jobs/" + view.ID + "/result"
		if view.CacheHit {
			resp.Cache = "hit"
		} else {
			resp.Cache = "miss"
		}
	}
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(resp)
	w.Write(append(body, '\n'))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r, planJob)
	if j == nil {
		return
	}
	view := j.snapshot()
	switch view.State {
	case JobDone:
		s.writePlanBody(w, view.Body, view.CacheHit)
	case JobFailed, JobCanceled:
		ErrorBody(w, view.Status, view.ErrMsg)
	default:
		ErrorBody(w, http.StatusConflict, "job not finished; poll /jobs/"+view.ID)
	}
}

// errCanceledByClient is the cancel cause DELETE attaches; a canceled
// sweep reports it as its reason.
var errCanceledByClient = errors.New("canceled by client")

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r, planJob)
	if j == nil {
		return
	}
	state := j.requestCancel(errCanceledByClient)
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(statusResponse{ID: j.id, State: state})
	w.Write(append(body, '\n'))
}
