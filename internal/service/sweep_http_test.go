package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"copack"
	"copack/internal/sweep"
)

// sseEvent is one parsed frame of a text/event-stream body.
type sseEvent struct {
	Type string
	Data Event
}

// readSSE consumes an event stream to EOF, returning the typed frames and
// how many comment heartbeats rode along.
func readSSE(t *testing.T, r *bufio.Reader) (events []sseEvent, heartbeats int) {
	t.Helper()
	var cur sseEvent
	for {
		line, err := r.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, ": "):
			heartbeats++
		case strings.HasPrefix(line, "event: "):
			cur.Type = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &cur.Data); err != nil {
				t.Fatalf("bad SSE data %q: %v", line, err)
			}
			events = append(events, cur)
			cur = sseEvent{}
		}
		if err != nil {
			return events, heartbeats
		}
	}
}

func sweepBody(kind string, seeds []int64, tries int) string {
	b, _ := json.Marshal(map[string]any{"kind": kind, "seeds": seeds, "random_tries": tries})
	return string(b)
}

func submitSweep(t *testing.T, s *testServer, body string) string {
	t.Helper()
	resp, data := s.post(t, "/sweeps", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps: %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

func TestSweepSSEStreamDeterministicShape(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 16, SweepHeartbeat: time.Hour})
	id := submitSweep(t, s, sweepBody("table2", []int64{1, 2, 3}, 2))

	resp, err := http.Get(s.ts.URL + "/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	events, _ := readSSE(t, bufio.NewReader(resp.Body))
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}

	// Progress ticks are strictly increasing, the terminal event is
	// exactly one and closes the stream.
	lastTick, terminals := 0, 0
	for i, e := range events {
		if e.Type != string(e.Data.Type) {
			t.Errorf("event %d: SSE type %q but data type %q", i, e.Type, e.Data.Type)
		}
		switch e.Data.Type {
		case EventProgress:
			if e.Data.UnitsDone != lastTick+1 {
				t.Errorf("tick %d -> %d, want strictly increasing by 1", lastTick, e.Data.UnitsDone)
			}
			lastTick = e.Data.UnitsDone
		case EventDone, EventFailed, EventCanceled:
			terminals++
			if i != len(events)-1 {
				t.Errorf("terminal event at position %d of %d", i, len(events))
			}
		}
	}
	if lastTick != 3 {
		t.Errorf("final tick %d, want 3", lastTick)
	}
	if terminals != 1 {
		t.Errorf("%d terminal events, want exactly 1", terminals)
	}
	if events[len(events)-1].Data.Type != EventDone {
		t.Errorf("stream ended with %s, want done", events[len(events)-1].Data.Type)
	}

	// A late subscriber replays the whole log and sees the same frames.
	resp2, err := http.Get(s.ts.URL + "/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, _ := readSSE(t, bufio.NewReader(resp2.Body))
	if len(replay) != len(events) {
		t.Fatalf("replay has %d events, first read had %d", len(replay), len(events))
	}

	// The result body is served verbatim and a re-submitted identical
	// sweep reduces to the same bytes.
	rres, rbody := s.get(t, "/sweeps/"+id+"/result")
	if rres.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", rres.StatusCode, rbody)
	}
	id2 := submitSweep(t, s, sweepBody("table2", []int64{1, 2, 3}, 2))
	waitFor(t, func() bool {
		resp, data := s.get(t, "/sweeps/"+id2)
		if resp.StatusCode != http.StatusOK {
			return false
		}
		var st struct {
			State JobState `json:"state"`
		}
		json.Unmarshal(data, &st)
		return st.State.terminal()
	})
	_, rbody2 := s.get(t, "/sweeps/"+id2+"/result")
	if !bytes.Equal(rbody, rbody2) {
		t.Error("identical sweeps reduced to different bytes")
	}
}

func TestSweepRequestValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SweepMaxSeeds: 4})
	cases := []struct {
		body string
		want int
	}{
		{`{"kind":"table9","num_seeds":2}`, 400},
		{`{"kind":"table2"}`, 400},
		{`{"kind":"table2","num_seeds":2,"typo":true}`, 400},
		{`{"kind":"table2","num_seeds":5}`, 400}, // over SweepMaxSeeds
		{`{"kind":"table3","num_seeds":2,"random_tries":3}`, 400},
		{`{"kind":"table2","seeds":[1],"random_tries":2000000000}`, 400}, // over MaxRandomTries
		{``, 400},
	}
	for _, tc := range cases {
		resp, data := s.post(t, "/sweeps", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("POST /sweeps %q: %d (%s), want %d", tc.body, resp.StatusCode, data, tc.want)
		}
	}
	for _, path := range []string{"/sweeps/zzz", "/sweeps/zzz/result", "/sweeps/zzz/events"} {
		if resp, _ := s.get(t, path); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, resp.StatusCode)
		}
	}

	// Negative limits take the defaults: the queue holds 64 jobs, and the
	// seed cap stays on at 64 instead of switching off.
	neg := newTestServer(t, Config{Workers: 1, QueueDepth: -1, SweepMaxSeeds: -1})
	if got := cap(neg.svc.queue); got != 64 {
		t.Errorf("QueueDepth -1: queue capacity %d, want the default 64", got)
	}
	if resp, data := neg.post(t, "/sweeps", `{"kind":"table3","num_seeds":65}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("SweepMaxSeeds -1: 65 seeds got %d (%s), want 400", resp.StatusCode, data)
	}
}

func TestSweepClientDisconnectLeaksNothing(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SweepHeartbeat: 2 * time.Millisecond})
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	s.svc.testHookJobStart = func() { <-gate }

	id := submitSweep(t, s, sweepBody("table2", []int64{1, 2}, 2))
	base := runtime.NumGoroutine()

	// Open a stream against the gated (stuck) sweep, prove it is live via
	// a heartbeat, then walk away mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, s.ts.URL+"/sweeps/"+id+"/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	waitFor(t, func() bool {
		line, err := br.ReadString('\n')
		return err == nil && strings.HasPrefix(line, ": hb")
	})
	cancel()
	resp.Body.Close()

	// The handler holds no server state, so the goroutine count settles
	// back to (about) where it was before the stream opened.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= base+2 })

	// The sweep itself is unharmed: release the worker and it completes.
	release()
	waitFor(t, func() bool {
		_, data := s.get(t, "/sweeps/"+id)
		var st struct {
			State JobState `json:"state"`
		}
		json.Unmarshal(data, &st)
		return st.State == JobDone
	})
}

func TestSweepDrainEmitsCleanTerminalEvent(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SweepHeartbeat: 2 * time.Millisecond})
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	s.svc.testHookJobStart = func() { <-gate }

	id := submitSweep(t, s, sweepBody("table2", []int64{1, 2, 3}, 2))

	type streamResult struct {
		events []sseEvent
	}
	streamed := make(chan streamResult, 1)
	resp, err := http.Get(s.ts.URL + "/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	go func() {
		events, _ := readSSE(t, bufio.NewReader(resp.Body))
		streamed <- streamResult{events}
	}()

	// Drain while the stream is live and the sweep is stuck behind the
	// gate. Releasing the gate lets the queued unit closures run out
	// (instantly, under the canceled context) so the drain can finish.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		done <- s.svc.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.svc.draining() })
	release()
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	res := <-streamed
	if len(res.events) == 0 {
		t.Fatal("drained stream delivered no events")
	}
	last := res.events[len(res.events)-1]
	if last.Data.Type != EventCanceled {
		t.Fatalf("stream ended with %s, want canceled", last.Data.Type)
	}
	if last.Data.Error != "server draining" {
		t.Errorf("terminal event reason %q, want \"server draining\"", last.Data.Error)
	}

	// Post-drain, sweep intake answers 503 with the queue advertisement.
	resp2, _ := s.post(t, "/sweeps", sweepBody("table2", []int64{1}, 2))
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST /sweeps after drain: %d, want 503", resp2.StatusCode)
	}
	if resp2.Header.Get(QueueDepthHeader) == "" {
		t.Error("503 is missing the queue-depth advertisement")
	}
}

func TestQueuezAndBackpressureHeaders(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	resp, data := s.get(t, "/queuez")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/queuez: %d", resp.StatusCode)
	}
	var qi struct {
		Depth    int  `json:"depth"`
		Capacity int  `json:"capacity"`
		Draining bool `json:"draining"`
	}
	if err := json.Unmarshal(data, &qi); err != nil {
		t.Fatal(err)
	}
	if qi.Capacity != 1 || qi.Draining {
		t.Errorf("queuez = %+v, want capacity 1, not draining", qi)
	}
	if got := resp.Header.Get(QueueDepthHeader); got != "0/1" {
		t.Errorf("queuez header %q, want \"0/1\"", got)
	}

	// Hold the worker and fill the queue; the next submission's 429 must
	// advertise the saturated queue so fleet peers can skip this node.
	gate := make(chan struct{})
	var gateOnce sync.Once
	release := func() { gateOnce.Do(func() { close(gate) }) }
	defer release()
	s.svc.testHookJobStart = func() { <-gate }

	design := testDesign(t, 24, 7)
	for i := 0; i < 2; i++ {
		resp, data := s.post(t, "/jobs", planBody(t, design, RequestOptions{Seed: int64(40 + i), SkipExchange: true}))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", i, resp.StatusCode, data)
		}
	}
	resp429, _ := s.post(t, "/jobs", planBody(t, design, RequestOptions{Seed: 42, SkipExchange: true}))
	if resp429.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp429.StatusCode)
	}
	if got := resp429.Header.Get(QueueDepthHeader); got != "1/1" {
		t.Errorf("429 queue header %q, want \"1/1\"", got)
	}
	release()
}

// TestPlanRestartsSplitCacheKey: the restart count is part of a plan's
// content address. On a stacking design, where several restarts start
// warm, re-posting the same restarts hits, restarts 0 and 1 share one
// entry, and a different count misses and plans a different body.
func TestPlanRestartsSplitCacheKey(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	tc := copack.TestCircuit{Name: "svc", Fingers: 24,
		BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
	p, err := copack.BuildCircuit(tc, copack.BuildOptions{Seed: 7, Tiers: 2})
	if err != nil {
		t.Fatal(err)
	}
	design := copack.FormatDesign(p)
	post := func(restarts int) ([]byte, string) {
		t.Helper()
		resp, data := s.post(t, "/plan", planBody(t, design, RequestOptions{Seed: 5, Restarts: restarts}))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("restarts %d: %d: %s", restarts, resp.StatusCode, data)
		}
		return data, resp.Header.Get(CacheHeader)
	}
	warm, h := post(3)
	if h != "miss" {
		t.Errorf("first restarts-3 plan: %s = %q, want miss", CacheHeader, h)
	}
	again, h := post(3)
	if h != "hit" || !bytes.Equal(warm, again) {
		t.Errorf("repeat restarts-3 plan: %s = %q, identical %v", CacheHeader, h, bytes.Equal(warm, again))
	}
	single, h := post(1)
	if h != "miss" {
		t.Errorf("restarts-1 plan: %s = %q, want miss", CacheHeader, h)
	}
	if bytes.Equal(single, warm) {
		t.Error("a single anneal and three warm restarts planned the same body")
	}
	if _, h := post(0); h != "hit" {
		t.Errorf("restarts-0 plan: %s = %q, want the restarts-1 entry's hit", CacheHeader, h)
	}
}

// pollSweepState polls GET /sweeps/{id} until the state is terminal and
// returns the final status body.
func pollSweepState(t *testing.T, s *testServer, id string) (JobState, []byte) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := s.get(t, "/sweeps/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /sweeps/%s: %d: %s", id, resp.StatusCode, data)
		}
		var st struct {
			State JobState `json:"state"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State.terminal() {
			return st.State, data
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sweep %s never reached a terminal state", id)
	return "", nil
}

func TestSweepCancelEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SweepHeartbeat: time.Hour})
	gate := make(chan struct{})
	s.svc.testHookJobStart = func() { <-gate }
	id := submitSweep(t, s, sweepBody("table2", []int64{1, 2}, 2))

	// While units are gated the sweep is running: the result endpoint
	// must refuse with a pointer to the status/stream endpoints.
	respRun, dataRun := s.get(t, "/sweeps/"+id+"/result")
	if respRun.StatusCode != http.StatusConflict || !strings.Contains(string(dataRun), "not finished") {
		t.Fatalf("result while running: %d %s", respRun.StatusCode, dataRun)
	}

	req, err := http.NewRequest(http.MethodDelete, s.ts.URL+"/sweeps/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		ID    string   `json:"id"`
		State JobState `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || st.ID != id {
		t.Fatalf("DELETE /sweeps/%s: %d %+v", id, resp.StatusCode, st)
	}

	close(gate)
	state, _ := pollSweepState(t, s, id)
	if state != JobCanceled {
		t.Fatalf("state %s, want canceled", state)
	}
	respRes, dataRes := s.get(t, "/sweeps/"+id+"/result")
	if respRes.StatusCode != http.StatusConflict || !strings.Contains(string(dataRes), "canceled by client") {
		t.Fatalf("result after cancel: %d %s", respRes.StatusCode, dataRes)
	}
}

func TestSweepResultFailedState(t *testing.T) {
	// A spec the HTTP validator would reject, submitted straight to the
	// server: the result endpoint maps the failed state to a 500.
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8, SweepHeartbeat: time.Hour})
	j := submitSpec(t, s.svc, &sweep.Spec{Kind: "nope", Seeds: []int64{1}})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := j.wait(ctx); err != nil {
		t.Fatal(err)
	}
	resp, data := s.get(t, "/sweeps/"+j.id+"/result")
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "unknown kind") {
		t.Fatalf("result of failed sweep: %d %s", resp.StatusCode, data)
	}
}

// TestSweepAndShardBodiesDecode: a sweep body decodes and normalizes, a
// shard body decodes into the unit it names and checks, and neither lets
// a typo, a second value, an empty body or a rule violation through, each
// a 400 (TestMalformedBodiesAnswerAlike holds every class to one message
// on every route).
func TestSweepAndShardBodiesDecode(t *testing.T) {
	sp, err := decodeSweep([]byte(`{"kind":"table2","num_seeds":2}`), 64)
	if err != nil || sp.Kind != sweep.KindTable2 || len(sp.Seeds) != 2 || sp.RandomTries != 10 {
		t.Fatalf("sweep body decoded to %+v, %v", sp, err)
	}
	u, err := decodeUnit([]byte(`{"kind":"table3","seed":4}` + "\n"))
	if err != nil || u != (sweep.Unit{Kind: sweep.KindTable3, Seed: 4}) {
		t.Fatalf("shard body decoded to %+v, %v", u, err)
	}
	reject := func(what, body string, err error) {
		var he *httpError
		if !errors.As(err, &he) || he.status != http.StatusBadRequest {
			t.Errorf("%s body %q: %v, want a 400", what, body, err)
		}
	}
	for _, body := range []string{
		`{"kind":"table2","num_seeds":2,"typo":1}`,
		`{"kind":"table2"}{"kind":"table3"}`,
		``,
		`{"kind":"table2","num_seeds":65}`,
	} {
		_, err := decodeSweep([]byte(body), 64)
		reject("sweep", body, err)
	}
	for _, body := range []string{
		`{"kind":"table3","seed":1,"x":1}`,
		`{"kind":"table3","seed":1} garbage`,
		``,
		`{"kind":"table9","seed":1}`,
	} {
		_, err := decodeUnit([]byte(body))
		reject("shard", body, err)
	}
}

func TestSweepShardEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, SweepHeartbeat: time.Hour})
	req := sweep.Request{Kind: "table2", Seeds: []int64{1, 2}, RandomTries: 2}
	sp, err := req.Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	shard := func(i int) string {
		b, _ := json.Marshal(sp.Unit(i))
		return string(b)
	}
	resp, data := s.post(t, "/sweeps/shard", shard(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /sweeps/shard: %d: %s", resp.StatusCode, data)
	}
	var out sweep.ShardResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	want, err := sweep.RunUnit(sp, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Result, want) || out.Cached {
		t.Fatalf("shard answered cached=%v\n got %s\nwant RunUnit's %s", out.Cached, out.Result, want)
	}

	for _, bad := range []struct{ name, body string }{
		{"malformed json", `{nope`},
		{"unknown field", `{"kind":"table2","random_tries":2,"seed":1,"extra":1}`},
		{"a sweep's shard body", `{"spec":{"kind":"table2","seeds":[1],"random_tries":2},"units":[0]}`},
		{"missing kind", `{"seed":1}`},
		{"random_tries over cap", `{"kind":"table2","random_tries":2000000000,"seed":1}`},
	} {
		resp, data := s.post(t, "/sweeps/shard", bad.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", bad.name, resp.StatusCode, data)
		}
	}

	// A draining node refuses shards with the backpressure header so the
	// coordinator falls back to local computation immediately.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	respDrain, _ := s.post(t, "/sweeps/shard", shard(0))
	if respDrain.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shard while draining: %d, want 503", respDrain.StatusCode)
	}
	if respDrain.Header.Get(QueueDepthHeader) == "" {
		t.Fatal("draining shard refusal missing queue-depth header")
	}
}

func TestMetricsRecorderFeedsSnapshot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 8})
	s.svc.MetricsRecorder().Add("external/counter", 3)
	resp, data := s.get(t, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(data), `"external/counter"`) {
		t.Fatalf("metrics missing externally recorded counter: %s", data)
	}
}
