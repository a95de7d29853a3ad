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

// setQueueHeader advertises the current queue depth on a response.
func (s *Server) setQueueHeader(w http.ResponseWriter) {
	depth, capacity, _ := s.QueueInfo()
	w.Header().Set(QueueDepthHeader, fmt.Sprintf("%d/%d", depth, capacity))
}

// handleQueuez serves the admission-control signal: the job queue's
// depth, capacity and drain state in one cheap GET.
func (s *Server) handleQueuez(w http.ResponseWriter, r *http.Request) {
	depth, capacity, draining := s.QueueInfo()
	w.Header().Set(QueueDepthHeader, fmt.Sprintf("%d/%d", depth, capacity))
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(map[string]any{
		"depth":    depth,
		"capacity": capacity,
		"draining": draining,
	})
	w.Write(append(body, '\n'))
}

// writeSweepError maps a sweep request failure onto the response;
// *sweep.HTTPError values carry their own status.
func (s *Server) writeSweepError(w http.ResponseWriter, err error) {
	var he *sweep.HTTPError
	switch {
	case errors.As(err, &he):
		errorBody(w, he.Status, he.Msg)
	case errors.Is(err, sweep.ErrDraining):
		s.writeDraining(w)
	default:
		errorBody(w, http.StatusInternalServerError, err.Error())
	}
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
	req, err := sweep.DecodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeSweepError(w, err)
		return
	}
	sp, err := req.Normalize(s.sweeps.MaxSeeds())
	if err != nil {
		s.writeSweepError(w, err)
		return
	}
	j := newJob(s.baseCtx, sweepJob)
	j.sweep = sp
	if err := s.submit(j); err != nil {
		s.writeSweepError(w, err)
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
		errorBody(w, view.Status, view.ErrMsg)
	case JobCanceled:
		errorBody(w, view.Status, "sweep canceled: "+view.ErrMsg)
	default:
		errorBody(w, http.StatusConflict, "sweep not finished; poll /sweeps/"+view.ID+" or stream /sweeps/"+view.ID+"/events")
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
		errorBody(w, http.StatusInternalServerError, "response writer cannot stream")
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
// the units run through this node's bounded queue and their canonical
// JSON results return in request order. Any failure maps to a status the
// coordinator treats as "run the batch locally instead".
func (s *Server) handleSweepShard(w http.ResponseWriter, r *http.Request) {
	s.rec.Add("requests/sweeps-shard", 1)
	if s.draining() {
		s.writeDraining(w)
		return
	}
	sr, err := sweep.DecodeShard(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		s.writeSweepError(w, err)
		return
	}
	// The shard obeys both the coordinator (request context: its
	// cancellation abandons the shard) and this server (base context:
	// shutdown drains).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := context.AfterFunc(s.baseCtx, cancel)
	defer stop()

	resp, err := s.sweeps.RunShardLocal(ctx, sr)
	if err != nil {
		if ctx.Err() != nil {
			s.setQueueHeader(w)
			errorBody(w, http.StatusServiceUnavailable, "shard canceled: "+err.Error())
			return
		}
		s.writeSweepError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	body, _ := json.Marshal(resp)
	w.Write(append(body, '\n'))
}
