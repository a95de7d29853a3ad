package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"copack"
	"copack/internal/faultinject"
	"copack/internal/service"
)

// key returns a request body's content address.
func (f *testFleet) key(t *testing.T, body string) string {
	t.Helper()
	key, err := f.nodes[f.order[0]].svc.SpecKey([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// copyAt makes entry hold a copy of body's plan, which another node
// owns: the owner plans it, and entry relays the owner's cache hit.
func (f *testFleet) copyAt(t *testing.T, entry, owner, body string) {
	t.Helper()
	if resp, data := f.post(t, owner, "/plan", body); resp.StatusCode != http.StatusOK {
		t.Fatalf("plan on owner %s: %d: %s", owner, resp.StatusCode, data)
	}
	resp, data := f.post(t, entry, "/plan", body)
	if resp.StatusCode != http.StatusOK || resp.Header.Get(nodeHeader) != owner || resp.Header.Get(cacheHeader) != "hit" {
		t.Fatalf("relayed hit via %s: %d node=%q cache=%q: %s", entry, resp.StatusCode,
			resp.Header.Get(nodeHeader), resp.Header.Get(cacheHeader), data)
	}
	if !f.nodes[entry].svc.Holds(f.key(t, body)) {
		t.Fatalf("%s kept no copy of %s's hit", entry, owner)
	}
}

// TestCopiedHitByteIdenticalAtEveryEntry: once a key's owner has it
// cached, every other entry keeps the first hit it relays and answers
// the key itself from then on: the owner's exact bytes, X-Copack-Cache
// hit, X-Copack-Node naming the entry, and no forward.
func TestCopiedHitByteIdenticalAtEveryEntry(t *testing.T) {
	ids := []string{"a", "b", "c"}
	f := newTestFleet(t, ids, nil)
	design := fleetDesign(t)
	for _, owner := range ids {
		body := f.bodyOwnedBy(t, design, owner)
		golden := goldenBody(t, body)
		for _, entry := range ids {
			if entry == owner {
				continue
			}
			f.copyAt(t, entry, owner, body)
			before, ownerBefore := f.counters(t, entry), f.counters(t, owner)
			resp, data := f.post(t, entry, "/plan", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("copy via %s: %d: %s", entry, resp.StatusCode, data)
			}
			if !bytes.Equal(data, golden) {
				t.Errorf("copy via %s differs from golden", entry)
			}
			if got := resp.Header.Get(cacheHeader); got != "hit" {
				t.Errorf("copy via %s: %s = %q, want hit", entry, cacheHeader, got)
			}
			if got := resp.Header.Get(nodeHeader); got != entry {
				t.Errorf("copy via %s answered by %q", entry, got)
			}
			after, ownerAfter := f.counters(t, entry), f.counters(t, owner)
			if after["fleet/serve/forwarded-owner"] != before["fleet/serve/forwarded-owner"] ||
				ownerAfter["fleet/hops/received"] != ownerBefore["fleet/hops/received"] {
				t.Errorf("copy via %s still forwarded to %s", entry, owner)
			}
			if after["fleet/serve/local-held"] != before["fleet/serve/local-held"]+1 {
				t.Errorf("copy via %s: local-held %d → %d", entry,
					before["fleet/serve/local-held"], after["fleet/serve/local-held"])
			}
		}
	}
}

// TestOnlyRelayedHitsAreCopied: an owner's miss, a partial plan, an
// error and a job handle pass through the entry, and it keeps none.
func TestOnlyRelayedHitsAreCopied(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	f := newTestFleet(t, []string{"a", "b"}, nil)
	design := fleetDesign(t)
	bodies := f.bodiesOwnedBy(t, design, "b", 3)
	held := func(body string) bool { return f.nodes["a"].svc.Holds(f.key(t, body)) }

	// The owner's miss: b plans it, a relays it and keeps nothing.
	resp, data := f.post(t, "a", "/plan", bodies[0])
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cacheHeader) != "miss" {
		t.Fatalf("owner miss: %d cache=%q: %s", resp.StatusCode, resp.Header.Get(cacheHeader), data)
	}
	if held(bodies[0]) {
		t.Error("owner miss copied")
	}

	// A job handle: b answers 202 for a key it has cached.
	resp, data = f.post(t, "a", "/jobs", bodies[0])
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(data), `"b-j`) {
		t.Fatalf("submit via a: %d: %s", resp.StatusCode, data)
	}
	if held(bodies[0]) {
		t.Error("202 job handle copied")
	}

	// A partial plan: budget_ms cuts 64 restarts of a 96-net design that
	// take far longer. b never caches it, so it is a miss every time.
	big, err := copack.BuildCircuit(copack.TestCircuit{Name: "fleet", Fingers: 96,
		BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}, copack.BuildOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	partial, err := json.Marshal(service.PlanRequest{Design: copack.FormatDesign(big),
		Options: service.RequestOptions{Seed: 1, BudgetMS: 1, Restarts: 64}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp, data = f.post(t, "a", "/plan", string(partial))
		if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"partial":true`)) {
			t.Fatalf("partial plan: %d: %s", resp.StatusCode, data)
		}
		if held(string(partial)) {
			t.Error("partial plan copied")
		}
	}

	// An error: the owner's planner fails, and the entry relays its 500.
	faultinject.Arm(faultinject.Fault{Point: faultinject.PlanStage, PanicValue: "injected", Repeat: true})
	resp, data = f.post(t, "a", "/plan", bodies[1])
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get(nodeHeader) != "b" {
		t.Fatalf("planner fault: %d node=%q: %s", resp.StatusCode, resp.Header.Get(nodeHeader), data)
	}
	if held(bodies[1]) {
		t.Error("error copied")
	}
	faultinject.Reset()

	// Only now, a relayed hit: a keeps it.
	f.copyAt(t, "a", "b", bodies[2])
}

// TestHeldJobBornDoneOnEntry: POST /jobs for a key the entry holds is
// born done on the entry, under the entry's ID prefix, and its polls
// stay there.
func TestHeldJobBornDoneOnEntry(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, nil)
	body := f.bodyOwnedBy(t, fleetDesign(t), "b")
	golden := goldenBody(t, body)
	f.copyAt(t, "a", "b", body)
	hops := f.counters(t, "b")["fleet/hops/received"]

	resp, data := f.post(t, "a", "/jobs", body)
	if resp.StatusCode != http.StatusAccepted || resp.Header.Get(nodeHeader) != "a" {
		t.Fatalf("submit via a: %d node=%q: %s", resp.StatusCode, resp.Header.Get(nodeHeader), data)
	}
	var sub struct{ ID, State string }
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "a-j") || sub.State != "done" {
		t.Fatalf("job %s born %s, want an a-j ID born done", sub.ID, sub.State)
	}
	resp, _ = f.get(t, "a", "/jobs/"+sub.ID)
	if got := resp.Header.Get(nodeHeader); got != "a" {
		t.Errorf("poll answered by %q, want a", got)
	}
	if got := f.awaitJob(t, "a", sub.ID); !bytes.Equal(got, golden) {
		t.Error("job result differs from golden")
	}
	if got := f.counters(t, "b")["fleet/hops/received"]; got != hops {
		t.Errorf("held job reached b: hops %d → %d", hops, got)
	}
}

// TestDrainingEntryRoutesHeldKey: a draining entry holds nothing, so it
// walks the ring as it would without its copy and the owner answers.
// Serving the copy locally would answer 503.
func TestDrainingEntryRoutesHeldKey(t *testing.T) {
	f := newTestFleet(t, []string{"a", "b"}, nil)
	body := f.bodyOwnedBy(t, fleetDesign(t), "b")
	golden := goldenBody(t, body)
	f.copyAt(t, "a", "b", body)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.nodes["a"].svc.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, data := f.post(t, "a", "/plan", body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(data, golden) {
		t.Fatalf("held key via draining a: %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get(nodeHeader); got != "b" {
		t.Errorf("held key via draining a answered by %q, want b", got)
	}
	resp, data = f.post(t, "a", "/jobs", body)
	if resp.StatusCode != http.StatusAccepted || !strings.Contains(string(data), `"b-j`) {
		t.Errorf("job via draining a: %d: %s", resp.StatusCode, data)
	}
}
