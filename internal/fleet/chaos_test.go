package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"copack/internal/faultinject"
)

// TestChaosKillOneOfThreeMidLoad is the fleet's headline guarantee under
// fire: three nodes serve concurrent sync and async load, one node is
// killed mid-load (every connection to it refused, via the deterministic
// fault registry — no real processes die and no timing is involved), and
// the fleet must lose nothing: every response byte-identical to a
// standalone server's, every async job reaching done, and the
// retry/failover/breaker counters visible in /metrics. Afterwards the
// node "restarts" (the fault is cleared) and the fleet heals: traffic
// flows to it again and it answers the same bytes.
func TestChaosKillOneOfThreeMidLoad(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	f := newTestFleet(t, []string{"a", "b", "c"}, func(r *retryPolicy) {
		// A short cooldown lets the post-restart probe happen promptly; the
		// healing loop below polls, so no assertion depends on elapsed time.
		r.breakerCooldown = time.Millisecond
	})
	design := fleetDesign(t)

	// Two request bodies owned by each node, plus each body's golden bytes
	// from a standalone (fleetless) server.
	var bodies []string
	golden := map[string][]byte{}
	for _, owner := range []string{"a", "b", "c"} {
		seen := 0
		for seed := int64(0); seed < 1000 && seen < 2; seed++ {
			body := planBody(t, design, seed)
			key, err := f.nodes["a"].svc.SpecKey([]byte(body))
			if err != nil {
				t.Fatal(err)
			}
			if f.nodes["a"].rt.ring.owner(key) == owner {
				bodies = append(bodies, body)
				golden[body] = goldenBody(t, body)
				seen++
			}
		}
		if seen != 2 {
			t.Fatalf("could not find 2 bodies owned by %s", owner)
		}
	}

	// Phase 1 — healthy fleet: every body through every node answers the
	// golden bytes regardless of which node the client picked.
	for _, body := range bodies {
		for _, node := range []string{"a", "b", "c"} {
			resp, data := f.post(t, node, "/plan", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("healthy plan via %s: %d: %s", node, resp.StatusCode, data)
			}
			if !bytes.Equal(data, golden[body]) {
				t.Fatalf("healthy plan via %s differs from golden", node)
			}
		}
	}

	// Phase 2 — kill b mid-load: every connection to b is refused from
	// here on. Clients keep hitting the survivors with concurrent sync and
	// async traffic for every body, including the ones b owns.
	faultinject.Arm(faultinject.Fault{Point: faultinject.FleetDial("b"), Repeat: true})

	type planRes struct {
		node, body string
		status     int
		data       []byte
		err        error
	}
	type jobRes struct {
		node, body, id string
		status         int
		err            error
	}
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		plans []planRes
		jobs  []jobRes
	)
	for _, body := range bodies {
		for _, node := range []string{"a", "c"} {
			wg.Add(2)
			go func(node, body string) {
				defer wg.Done()
				res := planRes{node: node, body: body}
				resp, err := http.Post(f.nodes[node].ts.URL+"/plan", "application/json", strings.NewReader(body))
				if err != nil {
					res.err = err
				} else {
					res.status = resp.StatusCode
					res.data, res.err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				mu.Lock()
				plans = append(plans, res)
				mu.Unlock()
			}(node, body)
			go func(node, body string) {
				defer wg.Done()
				res := jobRes{node: node, body: body}
				resp, err := http.Post(f.nodes[node].ts.URL+"/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					res.err = err
				} else {
					res.status = resp.StatusCode
					data, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					var sub struct {
						ID string `json:"id"`
					}
					if rerr != nil {
						res.err = rerr
					} else if uerr := json.Unmarshal(data, &sub); uerr != nil {
						res.err = fmt.Errorf("submit body %q: %v", data, uerr)
					}
					res.id = sub.ID
				}
				mu.Lock()
				jobs = append(jobs, res)
				mu.Unlock()
			}(node, body)
		}
	}
	wg.Wait()

	// Every synchronous request survived the kill with golden bytes.
	for _, p := range plans {
		if p.err != nil {
			t.Fatalf("sync plan via %s: %v", p.node, p.err)
		}
		if p.status != http.StatusOK {
			t.Fatalf("sync plan via %s: %d: %s", p.node, p.status, p.data)
		}
		if !bytes.Equal(p.data, golden[p.body]) {
			t.Errorf("sync plan via %s differs from golden", p.node)
		}
	}
	// Zero lost jobs: every submission was accepted off the dead node and
	// runs to done with golden bytes.
	for _, j := range jobs {
		if j.err != nil {
			t.Fatalf("submit via %s: %v", j.node, j.err)
		}
		if j.status != http.StatusAccepted {
			t.Fatalf("submit via %s: %d", j.node, j.status)
		}
		if strings.HasPrefix(j.id, "b-") {
			t.Fatalf("job %s landed on the killed node", j.id)
		}
		if got := f.awaitJob(t, j.node, j.id); !bytes.Equal(got, golden[j.body]) {
			t.Errorf("job %s result differs from golden", j.id)
		}
	}

	// The survivors' /metrics expose what the fleet did to stay up.
	for _, node := range []string{"a", "c"} {
		c := f.counters(t, node)
		for _, k := range []string{"fleet/retries", "fleet/failovers", "fleet/breaker/opened"} {
			if c[k] == 0 {
				t.Errorf("node %s: counter %s is zero after the kill: %v", node, k, c)
			}
		}
	}

	// Phase 3 — restart b (clear the fault) and watch the fleet heal:
	// within the polling deadline a's forwarding reaches b again, still
	// answering golden bytes on every intermediate attempt.
	faultinject.Reset()
	if resp, _ := f.get(t, "b", "/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted b healthz: %d", resp.StatusCode)
	}
	healBody := f.bodyOwnedBy(t, design, "b")
	deadline := time.Now().Add(10 * time.Second)
	healed := false
	for time.Now().Before(deadline) {
		resp, data := f.post(t, "a", "/plan", healBody)
		if resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden[healBody]) {
			t.Fatalf("post-restart plan via a: %d", resp.StatusCode)
		}
		if resp.Header.Get(nodeHeader) == "b" {
			healed = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !healed {
		t.Fatal("traffic never returned to b after the restart")
	}
	// And b itself serves the shared-cache answer directly.
	resp, data := f.post(t, "b", "/plan", healBody)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden[healBody]) {
		t.Fatalf("restarted b answers differently: %d", resp.StatusCode)
	}
}
