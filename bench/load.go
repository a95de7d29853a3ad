package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// pollInterval is how often an async client polls a plan job. Queue waits
// are measured to this resolution.
const pollInterval = 2 * time.Millisecond

// sweepPollInterval is the coarser poll for sweeps, which take hundreds
// of milliseconds; polling them as often as jobs would load the fleet
// with status requests.
const sweepPollInterval = 10 * time.Millisecond

// tally accumulates what the client saw.
type tally struct {
	attempted, failed int
	rejected          int       // 429 and 503 answers
	planMs            []float64 // completed plans, sync and async
	hitMs             []float64 // sync plans answered from the cache
	queueWaitMs       []float64 // async submit until the job left "queued"
	asyncJobs, polls  int
	answered          int // fleet responses naming the node that answered
	forwarded         int // ... of which another node than the entry
	units             int // sweep units in completed sweeps
	errs              []string
}

// fail counts a failed operation and keeps the first few reasons.
func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

// client sends requests to the servers of one workload.
type client struct {
	hc   *http.Client
	urls []string
	ids  []string // fleet node IDs by entry index; nil for a lone node
	chk  *checker
	tr   *tracer
}

// statusError is a non-2xx answer.
type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.status, e.body) }

// call performs one HTTP exchange as a child span of parent and requires
// the wanted status.
func (c *client) call(method, url string, body []byte, want int, parent, req int, name string) (*http.Response, []byte, error) {
	_, end := c.tr.span(name, parent, req)
	defer end()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, nil, err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return nil, nil, &statusError{status: resp.StatusCode, body: string(bytes.TrimSpace(data))}
	}
	return resp, data, nil
}

// countFailure tallies err, noting backpressure refusals separately.
func (t *tally) countFailure(err error) {
	if se, ok := err.(*statusError); ok && (se.status == http.StatusTooManyRequests || se.status == http.StatusServiceUnavailable) {
		t.rejected++
	}
	t.fail(err)
}

// plan sends one plan request, sync (POST /plan) or async (POST /jobs,
// then polls and the result), through entry node, and checks the body.
func (c *client) plan(t *tally, req, id int, body []byte, entry int, async bool) {
	t.attempted++
	name := "plan.sync"
	if async {
		name = "plan.async"
	}
	root, end := c.tr.span(name, 0, req)
	start := time.Now()
	resp, data, err := c.planExchange(t, root, req, body, entry, async)
	lat := time.Since(start)
	end()
	if err != nil {
		t.countFailure(err)
		return
	}
	if err := c.chk.plan(id, data); err != nil {
		t.fail(err)
		return
	}
	t.planMs = append(t.planMs, ms(lat))
	if !async && resp.Header.Get("X-Copack-Cache") == "hit" {
		t.hitMs = append(t.hitMs, ms(lat))
	}
	if c.ids != nil {
		if node := resp.Header.Get("X-Copack-Node"); node != "" {
			t.answered++
			if node != c.ids[entry] {
				t.forwarded++
			}
		}
	}
}

func (c *client) planExchange(t *tally, root, req int, body []byte, entry int, async bool) (*http.Response, []byte, error) {
	base := c.urls[entry]
	if !async {
		return c.call(http.MethodPost, base+"/plan", body, http.StatusOK, root, req, "POST /plan")
	}
	_, data, err := c.call(http.MethodPost, base+"/jobs", body, http.StatusAccepted, root, req, "POST /jobs")
	if err != nil {
		return nil, nil, err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		return nil, nil, fmt.Errorf("decoding job submission %q: %v", data, err)
	}
	submitted := time.Now()
	t.asyncJobs++
	waited := false
	for first := true; ; first = false {
		if !first {
			time.Sleep(pollInterval)
		}
		t.polls++
		_, data, err := c.call(http.MethodGet, base+"/jobs/"+sub.ID, nil, http.StatusOK, root, req, "GET /jobs/{id}")
		if err != nil {
			return nil, nil, err
		}
		var st struct{ State, Error string }
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, nil, fmt.Errorf("decoding job status %q: %w", data, err)
		}
		if !waited && st.State != "queued" {
			t.queueWaitMs = append(t.queueWaitMs, ms(time.Since(submitted)))
			waited = true
		}
		switch st.State {
		case "done":
			return c.call(http.MethodGet, base+"/jobs/"+sub.ID+"/result", nil, http.StatusOK, root, req, "GET /jobs/{id}/result")
		case "failed", "canceled":
			return nil, nil, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
		}
	}
}

// sweep submits one table3 sweep, polls it to a terminal state, fetches
// the result and checks it.
func (c *client) sweep(t *tally, req, id int, seeds []int64, entry int) {
	t.attempted++
	root, end := c.tr.span("sweep", 0, req)
	data, err := c.sweepExchange(root, req, seeds, entry)
	end()
	if err != nil {
		t.countFailure(err)
		return
	}
	if err := c.chk.sweep(id, seeds, data); err != nil {
		t.fail(err)
		return
	}
	t.units += len(seeds)
}

func (c *client) sweepExchange(root, req int, seeds []int64, entry int) ([]byte, error) {
	base := c.urls[entry]
	body, err := json.Marshal(map[string]any{"kind": "table3", "seeds": seeds})
	if err != nil {
		return nil, err
	}
	_, data, err := c.call(http.MethodPost, base+"/sweeps", body, http.StatusAccepted, root, req, "POST /sweeps")
	if err != nil {
		return nil, err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(data, &sub); err != nil || sub.ID == "" {
		return nil, fmt.Errorf("decoding sweep submission %q: %v", data, err)
	}
	for {
		time.Sleep(sweepPollInterval)
		_, data, err := c.call(http.MethodGet, base+"/sweeps/"+sub.ID, nil, http.StatusOK, root, req, "GET /sweeps/{id}")
		if err != nil {
			return nil, err
		}
		var st struct{ State, Error string }
		if err := json.Unmarshal(data, &st); err != nil {
			return nil, fmt.Errorf("decoding sweep status %q: %w", data, err)
		}
		switch st.State {
		case "done":
			_, data, err := c.call(http.MethodGet, base+"/sweeps/"+sub.ID+"/result", nil, http.StatusOK, root, req, "GET /sweeps/{id}/result")
			return data, err
		case "failed", "canceled":
			return nil, fmt.Errorf("sweep %s ended %s: %s", sub.ID, st.State, st.Error)
		}
	}
}

// runLoad drives the workload's closed loop for the given duration: one
// client sends operation k+1 only after operation k completed, and starts
// none after the deadline. One request in flight at a time keeps the load
// on about one CPU, so a neighbour on the other one moves the numbers
// little. It returns the tally and the wall time.
func (e *env) runLoad(chk *checker, tr *tracer, seconds float64) (*tally, time.Duration) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	c := e.client(chk, tr)
	t := &tally{}
	start := time.Now()
	for k := 0; time.Now().Before(deadline); k++ {
		e.op(c, t, k)
	}
	return t, time.Since(start)
}

func (e *env) client(chk *checker, tr *tracer) *client {
	c := &client{hc: e.hc, urls: e.cl.urls, chk: chk, tr: tr}
	if e.w.nodes > 1 {
		c.ids = fleetIDs[:e.w.nodes]
	}
	return c
}

// op is operation k of the workload. One plan request in four is async so
// that plan-hit's median stays inside the sync population instead of
// sitting on the edge between sync and async latencies.
func (e *env) op(c *client, t *tally, k int) {
	async := k%4 == 3
	switch e.w.name {
	case "plan-miss":
		u := k % len(e.in.unique)
		c.plan(t, k, u, e.in.unique[u], 0, async)
	case "plan-hit":
		h := e.in.zipf[k%len(e.in.zipf)]
		c.plan(t, k, hotIDBase+h, e.in.hot[h], 0, async)
	case "fleet-mix":
		// Five in six requests repeat a hot key, so the median sits in the
		// middle of the hits and the 90th percentile among the misses.
		// Every sixth is the next unique body. The hot key and the entry
		// node are uniform. All sync.
		r := mix(e.seed, k)
		entry := int((r >> 8) % uint64(len(e.cl.urls)))
		if k%6 != 0 {
			h := int((r >> 16) % uint64(len(e.in.hot)))
			c.plan(t, k, hotIDBase+h, e.in.hot[h], entry, false)
		} else {
			u := k / 6 % len(e.in.unique)
			c.plan(t, k, u, e.in.unique[u], entry, false)
		}
	case "sweep-mix":
		// Of every sweepEvery operations, the last is a table3 sweep and the
		// others unique sync plans, each through the next entry node. Every
		// third sweep resubmits an earlier seed set verbatim.
		entry := k % len(e.cl.urls)
		s := k / e.sz.sweepEvery // sweeps sent before this operation
		if k%e.sz.sweepEvery != e.sz.sweepEvery-1 {
			u := (k - s) % len(e.in.unique)
			c.plan(t, k, u, e.in.unique[u], entry, false)
			return
		}
		fresh := s - s/3 // distinct seed sets submitted before this one
		j := fresh % len(e.in.sweeps)
		if s%3 == 2 {
			j = int(mix(e.seed, sweepIDBase+s)>>1) % fresh % len(e.in.sweeps)
		}
		c.sweep(t, k, sweepIDBase+j, e.in.sweeps[j], entry)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
