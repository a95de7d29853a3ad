package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"copack/internal/sweep"
)

// QueueDepthHeader advertises the job queue as "depth/capacity". It rides
// every backpressure response (429/503) and GET /queuez, so a fleet peer
// can decide not to forward here before dialing.
const QueueDepthHeader = "X-Copack-Queue-Depth"

// Queuez is the body of GET /queuez: the job queue's capacity and depth
// and whether the server is draining. The field order is the body's key
// order.
type Queuez struct {
	Capacity int  `json:"capacity"`
	Depth    int  `json:"depth"`
	Draining bool `json:"draining"`
}

// setQueueHeader advertises the current queue depth on a response.
func (s *Server) setQueueHeader(w http.ResponseWriter) {
	q := s.queuez()
	w.Header().Set(QueueDepthHeader, fmt.Sprintf("%d/%d", q.Depth, q.Capacity))
}

// handleQueuez serves the admission-control signal: the job queue's
// depth, capacity and drain state in one cheap GET.
func (s *Server) handleQueuez(w http.ResponseWriter, r *http.Request) {
	q := s.queuez()
	w.Header().Set(QueueDepthHeader, fmt.Sprintf("%d/%d", q.Depth, q.Capacity))
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(q)
	w.Write(append(body, '\n'))
}

// decodeSweep strictly decodes and normalizes a POST /sweeps body.
func decodeSweep(body []byte, maxSeeds int) (*sweep.Spec, error) {
	var req sweep.Request
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	sp, err := req.Normalize(maxSeeds)
	if err != nil {
		return nil, httpErrf(http.StatusBadRequest, "%v", err)
	}
	return sp, nil
}

// decodeUnit strictly decodes and checks a POST /sweeps/shard body, one
// sweep unit.
func decodeUnit(body []byte) (sweep.Unit, error) {
	var u sweep.Unit
	if err := decodeJSON(body, &u); err != nil {
		return u, err
	}
	u, err := u.Normalize()
	if err != nil {
		return u, httpErrf(http.StatusBadRequest, "%v", err)
	}
	return u, nil
}

// sweepSubmitResponse is the 202 body of POST /sweeps.
type sweepSubmitResponse struct {
	ID        string   `json:"id"`
	State     JobState `json:"state"`
	Units     int      `json:"units"`
	StatusURL string   `json:"status_url"`
	EventsURL string   `json:"events_url"`
	ResultURL string   `json:"result_url"`
}

// handleSweepSubmit accepts a sweep: decode strictly, normalize, start
// the coordinator, answer 202 with the job's URLs.
func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	s.rec.Add("requests/sweeps", 1)
	raw, err := s.ReadBody(w, r)
	var sp *sweep.Spec
	if err == nil {
		sp, err = decodeSweep(raw, s.sweeps.MaxSeeds())
	}
	if err != nil {
		WriteError(w, err)
		return
	}
	j := newJob(s.baseCtx, sweepJob)
	j.sweep = sp
	if err := s.submit(j); err != nil {
		// A sweep is never queued at submission: the only refusal is
		// the drain.
		s.writeDraining(w)
		return
	}
	view := j.snapshot()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Location", "/sweeps/"+view.ID)
	w.WriteHeader(http.StatusAccepted)
	body, _ := json.Marshal(sweepSubmitResponse{
		ID:        view.ID,
		State:     view.State,
		Units:     view.UnitsTotal,
		StatusURL: "/sweeps/" + view.ID,
		EventsURL: "/sweeps/" + view.ID + "/events",
		ResultURL: "/sweeps/" + view.ID + "/result",
	})
	w.Write(append(body, '\n'))
}

// sweepStatusResponse is the body of GET /sweeps/{id} and DELETE
// /sweeps/{id}.
type sweepStatusResponse struct {
	ID         string   `json:"id"`
	State      JobState `json:"state"`
	UnitsDone  int      `json:"units_done"`
	UnitsTotal int      `json:"units_total"`
	Error      string   `json:"error,omitempty"`
	ResultURL  string   `json:"result_url,omitempty"`
}

func sweepStatus(view jobView) sweepStatusResponse {
	resp := sweepStatusResponse{
		ID:         view.ID,
		State:      view.State,
		UnitsDone:  view.UnitsDone,
		UnitsTotal: view.UnitsTotal,
		Error:      view.ErrMsg,
	}
	if view.State == JobDone {
		resp.ResultURL = "/sweeps/" + view.ID + "/result"
	}
	return resp
}

func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r, sweepJob)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(sweepStatus(j.snapshot()))
	w.Write(append(body, '\n'))
}

func (s *Server) handleSweepResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r, sweepJob)
	if j == nil {
		return
	}
	view := j.snapshot()
	switch view.State {
	case JobDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(view.Body)
	case JobFailed:
		ErrorBody(w, view.Status, view.ErrMsg)
	case JobCanceled:
		ErrorBody(w, view.Status, "sweep canceled: "+view.ErrMsg)
	default:
		ErrorBody(w, http.StatusConflict, "sweep not finished; poll /sweeps/"+view.ID+" or stream /sweeps/"+view.ID+"/events")
	}
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r, sweepJob)
	if j == nil {
		return
	}
	j.requestCancel(errCanceledByClient)
	// Cancellation is asynchronous: in-flight units finish, then the
	// coordinator emits the terminal canceled event. Report the state as
	// it stands; clients watch the event stream for the terminal event.
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(sweepStatus(j.snapshot()))
	w.Write(append(body, '\n'))
}

// handleSweepEvents streams a sweep's event log as Server-Sent Events:
// every log entry in order (progress ticks strictly increasing), comment
// heartbeats while idle, and exactly one terminal event before the stream
// closes. The handler returns when the terminal event is written or the
// client disconnects — it holds no server state, so disconnects leak
// nothing.
func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobFromPath(w, r, sweepJob)
	if j == nil {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		ErrorBody(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ticker := time.NewTicker(s.cfg.SweepHeartbeat)
	defer ticker.Stop()
	idx := 0
	for {
		events, changed, terminal := j.eventsSince(idx)
		for _, e := range events {
			data, _ := json.Marshal(e)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		}
		idx += len(events)
		if len(events) > 0 {
			flusher.Flush()
		}
		if terminal {
			// The loop drained the whole log above, so the terminal
			// event is on the wire: close the stream cleanly.
			return
		}
		select {
		case <-changed:
		case <-ticker.C:
			fmt.Fprint(w, ": hb\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleSweepShard executes a forwarded shard (the internal fleet hop):
// the one unit it names runs through this node's bounded queue, or
// answers from its unit cache, and its canonical JSON result returns. Any
// failure maps to a status the coordinator treats as "run the unit
// locally instead".
func (s *Server) handleSweepShard(w http.ResponseWriter, r *http.Request) {
	s.rec.Add("requests/sweeps-shard", 1)
	if s.draining() {
		s.writeDraining(w)
		return
	}
	raw, err := s.ReadBody(w, r)
	var u sweep.Unit
	if err == nil {
		u, err = decodeUnit(raw)
	}
	if err != nil {
		WriteError(w, err)
		return
	}
	// The shard obeys both the coordinator (request context: its
	// cancellation abandons the shard) and this server (base context:
	// shutdown drains).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	resp, err := s.sweeps.RunShardLocal(ctx, u)
	switch {
	case err == nil:
	case ctx.Err() != nil:
		s.setQueueHeader(w)
		ErrorBody(w, http.StatusServiceUnavailable, "shard canceled: "+err.Error())
		return
	case errors.Is(err, sweep.ErrDraining):
		s.writeDraining(w)
		return
	default:
		ErrorBody(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(resp)
	w.Write(append(body, '\n'))
}
