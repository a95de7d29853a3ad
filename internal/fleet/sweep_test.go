package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"copack/internal/faultinject"
	"copack/internal/service"
	"copack/internal/sweep"
)

// newSweepFleet builds a fleet whose services run the given worker count —
// the knob the golden test varies to prove worker parallelism cannot
// change sweep bytes.
func newSweepFleet(t *testing.T, ids []string, workers int) *testFleet {
	t.Helper()
	f := &testFleet{t: t, nodes: map[string]*testNode{}, order: ids}
	urls := make(map[string]string, len(ids))
	for _, id := range ids {
		svc := service.New(service.Config{Workers: workers, QueueDepth: 32,
			SyncConcurrency: 16, NodeID: id, SweepHeartbeat: 5 * time.Millisecond})
		sw := &swapHandler{}
		sw.set(http.NotFoundHandler())
		ts := httptest.NewServer(sw)
		f.nodes[id] = &testNode{id: id, svc: svc, ts: ts, sw: sw}
		urls[id] = ts.URL
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := svc.Shutdown(ctx); err != nil {
				t.Errorf("shutdown %s: %v", id, err)
			}
			ts.Close()
		})
	}
	for _, id := range ids {
		rt := newTestRouter(t, f.nodes[id].svc, id, urls, fastRetry)
		f.nodes[id].rt = rt
		f.nodes[id].sw.set(rt.Handler())
	}
	return f
}

func sweepReqBody(seeds []int64) string {
	b, _ := json.Marshal(map[string]any{"kind": "table2", "seeds": seeds, "random_tries": 2})
	return string(b)
}

// goldenSweepBody computes the reference sweep result on a standalone
// (fleetless) single-worker server — the byte-identity oracle every fleet
// shape is held to.
func goldenSweepBody(t *testing.T, body string) []byte {
	t.Helper()
	svc := service.New(service.Config{Workers: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	f := &testFleet{t: t, nodes: map[string]*testNode{"solo": {id: "solo", svc: svc, ts: ts}}, order: []string{"solo"}}
	id := f.submitSweep(t, "solo", body)
	return f.awaitSweep(t, "solo", id)
}

func (f *testFleet) submitSweep(t *testing.T, node, body string) string {
	t.Helper()
	resp, data := f.post(t, node, "/sweeps", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps via %s: %d: %s", node, resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	return sub.ID
}

// awaitSweep polls a sweep through node until done and returns its result
// body, failing on failed/canceled or lost units.
func (f *testFleet) awaitSweep(t *testing.T, node, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, data := f.get(t, node, "/sweeps/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s via %s: %d: %s", id, node, resp.StatusCode, data)
		}
		var st struct {
			State      string `json:"state"`
			UnitsDone  int    `json:"units_done"`
			UnitsTotal int    `json:"units_total"`
			Error      string `json:"error"`
		}
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("poll %s: %v", id, err)
		}
		switch st.State {
		case "done":
			if st.UnitsDone != st.UnitsTotal {
				t.Fatalf("sweep %s done with %d/%d units — lost units", id, st.UnitsDone, st.UnitsTotal)
			}
			resp, body := f.get(t, node, "/sweeps/"+id+"/result")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result %s: %d: %s", id, resp.StatusCode, body)
			}
			return body
		case "failed", "canceled":
			t.Fatalf("sweep %s reached %s: %s", id, st.State, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return nil
}

// remoteUnits counts how many of the sweep's units the ring places on a
// peer other than coordinator — a pure function of (membership, seeds).
func remoteUnits(t *testing.T, rt *Router, coordinator string, seeds []int64) int {
	t.Helper()
	req := sweep.Request{Kind: "table2", Seeds: seeds, RandomTries: 2}
	sp, err := req.Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := range sp.Seeds {
		if rt.Preference(sp.UnitKey(i))[0] != coordinator {
			n++
		}
	}
	return n
}

// TestSweepGoldenAcrossFleetShapes is the subsystem's headline contract:
// the reduced sweep body is byte-identical whether it was computed by a
// standalone server, a 1-node fleet, or a 3-node fleet, with 1 or 4
// workers per node — placement and parallelism change where units run,
// never their bytes. A warm resubmission, answered unit by unit from the
// owners' unit caches, reduces to the same bytes.
func TestSweepGoldenAcrossFleetShapes(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6}
	body := sweepReqBody(seeds)
	golden := goldenSweepBody(t, body)

	shapes := []struct {
		name    string
		ids     []string
		workers int
	}{
		{"1node-1worker", []string{"a"}, 1},
		{"3node-1worker", []string{"a", "b", "c"}, 1},
		{"3node-4workers", []string{"a", "b", "c"}, 4},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			f := newSweepFleet(t, shape.ids, shape.workers)
			id := f.submitSweep(t, "a", body)
			if !strings.HasPrefix(id, "a-s") {
				t.Fatalf("sweep id %q does not carry the coordinator prefix", id)
			}
			// Poll through the last node: status routes by ID prefix.
			via := shape.ids[len(shape.ids)-1]
			got := f.awaitSweep(t, via, id)
			if !bytes.Equal(got, golden) {
				t.Errorf("%s sweep body differs from standalone golden:\n got %s\nwant %s",
					shape.name, got, golden)
			}

			if len(shape.ids) > 1 {
				// The fleet really sharded: every ring-remote unit was
				// forwarded (none fell back — all peers are healthy).
				want := remoteUnits(t, f.nodes["a"].rt, "a", seeds)
				if want == 0 {
					t.Fatal("ring placed every unit on the coordinator; pick other seeds")
				}
				c := f.counters(t, "a")
				if got := c["sweep/units/forwarded"]; got != int64(want) {
					t.Errorf("forwarded %d units, ring owns %d remotely: %v", got, want, c)
				}
				if got := c["sweep/units/local"]; got != int64(len(seeds)-want) {
					t.Errorf("computed %d units locally, want %d", got, len(seeds)-want)
				}

				// The event stream proxies through a non-coordinator node
				// and replays the full log to its terminal done event.
				resp, err := http.Get(f.nodes[via].ts.URL + "/sweeps/" + id + "/events")
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				if got := resp.Header.Get(nodeHeader); got != "a" {
					t.Errorf("stream served by %q, want coordinator a", got)
				}
				var last service.Event
				progress := 0
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					line := sc.Text()
					if !strings.HasPrefix(line, "data: ") {
						continue
					}
					if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
						t.Fatal(err)
					}
					if last.Type == service.EventProgress {
						progress++
					}
				}
				if last.Type != service.EventDone {
					t.Errorf("proxied stream ended with %s, want done", last.Type)
				}
				if progress != len(seeds) {
					t.Errorf("proxied stream replayed %d progress ticks, want %d", progress, len(seeds))
				}
			}

			before := f.counters(t, "a")
			warm := f.awaitSweep(t, via, f.submitSweep(t, "a", body))
			if !bytes.Equal(warm, golden) {
				t.Errorf("%s warm sweep body differs from standalone golden:\n got %s\nwant %s",
					shape.name, warm, golden)
			}
			after := f.counters(t, "a")
			if got := after["sweep/units/cached"]; got != int64(len(seeds)) {
				t.Errorf("warm sweep answered %d units from cache, want %d: %v", got, len(seeds), after)
			}
			for _, k := range []string{"sweep/units/local", "sweep/units/forwarded"} {
				if after[k] != before[k] {
					t.Errorf("warm sweep computed units: %s %d -> %d", k, before[k], after[k])
				}
			}
			var hits int64
			for _, id := range shape.ids {
				hits += f.counters(t, id)["sweep/unitcache/hits"]
			}
			if hits != int64(len(seeds)) {
				t.Errorf("owners' unit caches hit %d times, want %d", hits, len(seeds))
			}
		})
	}
}

// TestSweepChaosKillNodeMidSweep kills one of three nodes while a sweep
// it owns shards for is running: every shard the dead peer can no longer
// serve degrades to local computation on the coordinator, zero units are
// lost, and the final body is still byte-identical to the standalone
// golden.
func TestSweepChaosKillNodeMidSweep(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	body := sweepReqBody(seeds)
	golden := goldenSweepBody(t, body)

	f := newSweepFleet(t, []string{"a", "b", "c"}, 1)
	// The ring must give b some of a's units for the kill to matter.
	req := sweep.Request{Kind: "table2", Seeds: seeds, RandomTries: 2}
	sp, err := req.Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	bOwned := 0
	for i := range sp.Seeds {
		if f.nodes["a"].rt.Preference(sp.UnitKey(i))[0] == "b" {
			bOwned++
		}
	}
	if bOwned == 0 {
		t.Fatal("ring gave b no units; pick other seeds")
	}

	id := f.submitSweep(t, "a", body)
	// Kill b immediately: connections already in flight may finish, every
	// later dial is refused.
	faultinject.Arm(faultinject.Fault{Point: faultinject.FleetDial("b"), Repeat: true})

	got := f.awaitSweep(t, "a", id)
	if !bytes.Equal(got, golden) {
		t.Errorf("post-kill sweep body differs from golden:\n got %s\nwant %s", got, golden)
	}
	c := f.counters(t, "a")
	if c["sweep/units/forwarded"]+c["sweep/units/local"] != int64(len(seeds)) {
		t.Errorf("units accounted %d forwarded + %d local, want %d total",
			c["sweep/units/forwarded"], c["sweep/units/local"], len(seeds))
	}
	if c["sweep/shards/failover-local"] == 0 {
		t.Errorf("kill produced no shard failover: %v", c)
	}
}

// TestSweepCoordinatorDeathThenResubmit kills a sweep's coordinator
// mid-sweep and resubmits the same body to a survivor, the recovery a
// client performs. Every unit b or c finished for the dead coordinator
// sits in its owner's unit cache, so the resubmission answers those
// units from the caches and computes only the rest: a's own units, plus
// any owner unit that had not finished. The body is the standalone
// golden.
func TestSweepCoordinatorDeathThenResubmit(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	body := sweepReqBody(seeds)
	golden := goldenSweepBody(t, body)

	f := newSweepFleet(t, []string{"a", "b", "c"}, 1)
	req := sweep.Request{Kind: "table2", Seeds: seeds, RandomTries: 2}
	sp, err := req.Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]int{}
	for i := range sp.Seeds {
		owned[f.nodes["a"].rt.Preference(sp.UnitKey(i))[0]]++
	}
	if owned["a"] == 0 || owned["b"]+owned["c"] == 0 {
		t.Fatalf("ring placement %v needs units on a and on its peers; pick other seeds", owned)
	}
	// shards/served counts a shard after its unit was cached.
	served := func() int64 {
		return f.counters(t, "b")["sweep/shards/served"] + f.counters(t, "c")["sweep/shards/served"]
	}

	f.submitSweep(t, "a", body)
	deadline := time.Now().Add(60 * time.Second)
	for served() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no forwarded unit finished on b or c")
		}
		time.Sleep(time.Millisecond)
	}
	// Kill a: nothing reaches it any more, and its sweep state dies with
	// its drain.
	faultinject.Arm(faultinject.Fault{Point: faultinject.FleetDial("a"), Repeat: true})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := f.nodes["a"].svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	finished := served()
	before := map[string]map[string]int64{"b": f.counters(t, "b"), "c": f.counters(t, "c")}

	got := f.awaitSweep(t, "b", f.submitSweep(t, "b", body))
	if !bytes.Equal(got, golden) {
		t.Errorf("resubmitted sweep body differs from golden:\n got %s\nwant %s", got, golden)
	}
	after := map[string]map[string]int64{"b": f.counters(t, "b"), "c": f.counters(t, "c")}
	delta := func(node, k string) int64 { return after[node][k] - before[node][k] }
	hits := delta("b", "sweep/unitcache/hits") + delta("c", "sweep/unitcache/hits")
	if hits < finished {
		t.Errorf("owners' unit caches hit %d times, but b and c had finished %d units", hits, finished)
	}
	cached := delta("b", "sweep/units/cached")
	computed := delta("b", "sweep/units/local") + delta("b", "sweep/units/forwarded")
	if cached != hits || cached+computed != int64(len(seeds)) {
		t.Errorf("coordinator b counted %d cached + %d computed units, want %d cache hits of %d units",
			cached, computed, hits, len(seeds))
	}
	if computed < int64(owned["a"]) {
		t.Errorf("computed %d units, fewer than the dead coordinator's %d", computed, owned["a"])
	}
	t.Logf("owners %v; %d units finished before the kill; resubmission: %d cached, %d computed",
		owned, finished, cached, computed)
}

// TestAdmissionCacheTable pins the admission cache's decision table:
// what counts as saturated, how header advertisements parse, and when an
// entry goes stale.
func TestAdmissionCacheTable(t *testing.T) {
	now := time.Unix(100, 0)
	cases := []struct {
		name            string
		depth, capacity int
		draining        bool
		sat             bool
	}{
		{"idle", 0, 8, false, false},
		{"almost full", 7, 8, false, false},
		{"full", 8, 8, false, true},
		{"over full", 9, 8, false, true},
		{"draining", 0, 8, true, true},
		{"no capacity advertised", 5, 0, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ac := newAdmissionCache()
			if got := ac.note("b", service.Queuez{Depth: tc.depth, Capacity: tc.capacity, Draining: tc.draining}, now); got != tc.sat {
				t.Errorf("note(%d/%d draining=%v) = %v, want %v", tc.depth, tc.capacity, tc.draining, got, tc.sat)
			}
			sat, fresh := ac.cached("b", now.Add(999*time.Millisecond))
			if !fresh || sat != tc.sat {
				t.Errorf("cached within TTL = (%v, %v), want (%v, true)", sat, fresh, tc.sat)
			}
			if _, fresh := ac.cached("b", now.Add(2*time.Second)); fresh {
				t.Error("entry still fresh after the TTL")
			}
		})
	}

	ac := newAdmissionCache()
	if _, fresh := ac.cached("zzz", now); fresh {
		t.Error("unknown node reported fresh")
	}
	ac.noteHeader("b", "8/8", false, now)
	if sat, fresh := ac.cached("b", now); !fresh || !sat {
		t.Error("header advertisement 8/8 did not saturate")
	}
	ac.noteHeader("b", "garbage", false, now.Add(500*time.Millisecond))
	if sat, _ := ac.cached("b", now); !sat {
		t.Error("unparseable header overwrote a good entry")
	}
	ac.noteHeader("b", "0/8", true, now)
	if sat, _ := ac.cached("b", now); !sat {
		t.Error("draining advertisement not saturated")
	}
}

// TestRouteKeyedSkipsSaturatedPeer pins the proxy's skip/fallback order:
// a fresh saturated advertisement makes routeKeyed skip the owner before
// dialing and fall to the next preference; once the TTL lapses the owner
// is dialed again.
func TestRouteKeyedSkipsSaturatedPeer(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	// a computes the first body itself and then holds it, so the
	// post-expiry probe sends a second one.
	bodies := f.bodiesOwnedBy(t, design, "b", 2)
	body := bodies[0]
	golden := goldenBody(t, body)
	rt := f.nodes["a"].rt

	// b advertises a full queue; a's next b-owned request must not dial b.
	rt.admission.note("b", service.Queuez{Depth: 16, Capacity: 16}, rt.now())
	resp, data := f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan with b saturated: %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(nodeHeader); got != "a" {
		t.Errorf("answered by %q, want local fallback a", got)
	}
	if !bytes.Equal(data, golden) {
		t.Error("admission-fallback body differs from golden")
	}
	c := f.counters(t, "a")
	if c["fleet/admission/skipped"] == 0 {
		t.Errorf("saturated peer was not skipped: %v", c)
	}
	if c["fleet/serve/failover-local"] == 0 {
		t.Errorf("skip did not fall through to local: %v", c)
	}

	// Expire the advertisement: the walk dials b again.
	rt.now = func() time.Time { return time.Now().Add(time.Hour) }
	resp, data = f.post(t, "a", "/plan", bodies[1])
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, goldenBody(t, bodies[1])) {
		t.Fatalf("post-expiry plan: %d", resp.StatusCode)
	}
	if got := resp.Header.Get(nodeHeader); got != "b" {
		t.Errorf("post-expiry answered by %q, want b", got)
	}
}

// TestBackpressureFeedsAdmissionCache pins the passive feedback loop: a
// draining peer's 503 carries the queue advertisement, the proxy records
// it, and both the Saturated dispatcher hook and the next routeKeyed walk
// act on the cached entry without dialing.
func TestBackpressureFeedsAdmissionCache(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	body := f.bodyOwnedBy(t, design, "b")
	golden := goldenBody(t, body)
	rt := f.nodes["a"].rt

	// A live idle b is not saturated; the probe hits /queuez.
	if rt.Saturated(context.Background(), "b") {
		t.Fatal("idle b reported saturated")
	}
	if c := f.counters(t, "a"); c["fleet/admission/probes"] == 0 {
		t.Errorf("no probe counted: %v", c)
	}

	// Drain b, expire a's fresh not-saturated entry, and forward: b's 503
	// advertisement lands in the admission cache as a side effect.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.nodes["b"].svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	rt.now = func() time.Time { return time.Now().Add(time.Hour) }
	resp, data := f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden) {
		t.Fatalf("plan with b draining: %d: %s", resp.StatusCode, data)
	}
	if sat, fresh := rt.admission.cached("b", rt.now()); !fresh || !sat {
		t.Errorf("drain 503 did not feed the admission cache: sat=%v fresh=%v", sat, fresh)
	}
	// The dispatcher hook answers from the cache — no probe, no dial.
	before := f.counters(t, "a")["fleet/admission/probes"]
	if !rt.Saturated(context.Background(), "b") {
		t.Error("cached drain advertisement not treated as saturated")
	}
	if after := f.counters(t, "a")["fleet/admission/probes"]; after != before {
		t.Errorf("fresh cache entry still probed: %d -> %d", before, after)
	}
	if c := f.counters(t, "a"); c["fleet/admission/cache-saturated"] == 0 {
		t.Errorf("cache-saturated counter missing: %v", c)
	}
}

// TestSweepDispatchPrefersAdmission pins the sweep-side admission hook:
// when the shard owner advertises saturation, the coordinator computes
// the shard locally without dialing, and the body stays golden.
func TestSweepDispatchPrefersAdmission(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	body := sweepReqBody(seeds)
	golden := goldenSweepBody(t, body)

	f := newSweepFleet(t, []string{"a", "b"}, 1)
	rt := f.nodes["a"].rt
	if remoteUnits(t, rt, "a", seeds) == 0 {
		t.Fatal("ring placed every unit on a; pick other seeds")
	}
	// Make b's saturation advertisement permanent for this test: the TTL
	// clock is frozen at note time.
	rt.admission.note("b", service.Queuez{Depth: 32, Capacity: 32}, rt.now())
	frozen := rt.now()
	rt.now = func() time.Time { return frozen }

	id := f.submitSweep(t, "a", body)
	got := f.awaitSweep(t, "a", id)
	if !bytes.Equal(got, golden) {
		t.Error("admission-fallback sweep body differs from golden")
	}
	c := f.counters(t, "a")
	if c["sweep/units/forwarded"] != 0 {
		t.Errorf("units forwarded to a saturated peer: %v", c)
	}
	if c["sweep/admission/local-fallback"] == 0 {
		t.Errorf("no admission fallback counted: %v", c)
	}
	if c["fleet/sweeps/shards-forwarded"] != 0 {
		t.Errorf("shard hop dialed despite saturation: %v", c)
	}
}
