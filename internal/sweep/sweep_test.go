package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"copack/internal/exp"
)

// inlineEnqueue is the simplest host queue: run the closure on a fresh
// goroutine immediately. Tests that need queue-full behavior substitute
// their own.
func inlineEnqueue(fn func()) error {
	go fn()
	return nil
}

func newTestManager(t *testing.T, tweak func(*Config)) *Manager {
	t.Helper()
	cfg := Config{Enqueue: inlineEnqueue}
	if tweak != nil {
		tweak(&cfg)
	}
	return NewManager(cfg)
}

func table2Spec(t *testing.T, seeds ...int64) *Spec {
	t.Helper()
	req := Request{Kind: "table2", Seeds: seeds, RandomTries: 2}
	sp, err := req.Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// progressLog is a Progress that records what Run reports.
type progressLog struct {
	mu    sync.Mutex
	units map[int]string // unit index → reporting node
	dups  int            // units reported more than once
}

func (p *progressLog) Unit(i int, node string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, seen := p.units[i]; seen {
		p.dups++
	}
	p.units[i] = node
}

func (p *progressLog) Log(string) {}

// runSweep runs sp to its end and returns the body, what progress
// recorded, and the error.
func runSweep(t *testing.T, m *Manager, sp *Spec) ([]byte, *progressLog, error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	p := &progressLog{units: map[int]string{}}
	body, err := m.Run(ctx, sp, p)
	return body, p, err
}

// requireEveryUnitOnce fails unless progress saw each of n units exactly
// once.
func requireEveryUnitOnce(t *testing.T, p *progressLog, n int) {
	t.Helper()
	if len(p.units) != n || p.dups != 0 {
		t.Errorf("progress saw %d distinct units (%d repeats), want each of %d once", len(p.units), p.dups, n)
	}
}

func TestNormalizeTable(t *testing.T) {
	cases := []struct {
		name    string
		req     Request
		wantErr string // substring of the error, "" = success
	}{
		{"table2 defaults tries", Request{Kind: "table2", NumSeeds: 3}, ""},
		{"table2 explicit seeds", Request{Kind: "table2", Seeds: []int64{5, 1}}, ""},
		{"table3 ok", Request{Kind: "table3", NumSeeds: 2}, ""},
		{"missing kind", Request{NumSeeds: 2}, "missing required field"},
		{"unknown kind", Request{Kind: "table9", NumSeeds: 2}, "unknown sweep kind"},
		{"table3 rejects tries", Request{Kind: "table3", NumSeeds: 2, RandomTries: 5}, "applies only to table2"},
		{"negative tries", Request{Kind: "table2", NumSeeds: 2, RandomTries: -1}, "random_tries must be"},
		{"tries at cap", Request{Kind: "table2", NumSeeds: 2, RandomTries: MaxRandomTries}, ""},
		{"tries over cap", Request{Kind: "table2", NumSeeds: 2, RandomTries: MaxRandomTries + 1}, "exceeds the cap of 1000"},
		{"both seed forms", Request{Kind: "table2", Seeds: []int64{1}, NumSeeds: 2}, "mutually exclusive"},
		{"no seeds", Request{Kind: "table2"}, "needs seeds or num_seeds"},
		{"negative num_seeds", Request{Kind: "table2", NumSeeds: -3}, "num_seeds must be"},
		{"negative num_seeds beside seeds", Request{Kind: "table3", Seeds: []int64{1, 2}, NumSeeds: -5}, "num_seeds must be"},
		{"over cap", Request{Kind: "table2", NumSeeds: 65}, "exceed the 64-unit cap"},
		{"num_seeds far over cap", Request{Kind: "table2", NumSeeds: math.MaxInt32}, "exceed the 64-unit cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := tc.req.Normalize(64)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if len(sp.Seeds) == 0 {
					t.Error("normalized spec has no seeds")
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			var he *HTTPError
			if !errors.As(err, &he) || he.Status != 400 {
				t.Errorf("want *HTTPError with status 400, got %#v", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestNormalizeDefaultsAreCanonical(t *testing.T) {
	// num_seeds 2 and seeds [1,2], default and explicit tries, all
	// normalize to the same spec (and so the same unit keys).
	a, err := (&Request{Kind: "table2", NumSeeds: 2}).Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Request{Kind: "table2", Seeds: []int64{1, 2}, RandomTries: 10}).Normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Seeds {
		if a.UnitKey(i) != b.UnitKey(i) {
			t.Errorf("unit %d: keys differ across equivalent requests", i)
		}
	}
}

func TestDecodeRequestStrict(t *testing.T) {
	if _, err := DecodeRequest(strings.NewReader(`{"kind":"table2","num_seeds":2,"typo":1}`)); err == nil {
		t.Error("unknown field was not rejected")
	}
	if _, err := DecodeRequest(strings.NewReader(`{"kind":"table2"}{"kind":"table3"}`)); err == nil {
		t.Error("trailing JSON was not rejected")
	}
	if _, err := DecodeRequest(strings.NewReader(``)); err == nil {
		t.Error("empty body was not rejected")
	}
	req, err := DecodeRequest(strings.NewReader(`{"kind":"table2","num_seeds":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Kind != "table2" || req.NumSeeds != 2 {
		t.Errorf("decoded %+v", req)
	}
}

// TestDecodeShardStrict: a shard body goes through the same strict decoder
// as a sweep request — unknown fields, a second JSON value and trailing
// garbage are 400s, an empty body says so, and a body over its
// MaxBytesReader cap is a 413 on both decoders.
func TestDecodeShardStrict(t *testing.T) {
	const valid = `{"spec":{"kind":"table3","seeds":[1]},"units":[0]}`
	for _, tc := range []struct{ name, body, want string }{
		{"unknown field", `{"spec":{"kind":"table3","seeds":[1]},"units":[0],"x":1}`, "unknown field"},
		{"trailing object", valid + `{"units":[9]}`, "more than one JSON object"},
		{"trailing garbage", valid + ` garbage`, "more than one JSON object"},
		{"empty body", ``, "empty request body"},
	} {
		_, err := DecodeShard(strings.NewReader(tc.body))
		var he *HTTPError
		if !errors.As(err, &he) || he.Status != http.StatusBadRequest || !strings.Contains(he.Msg, tc.want) {
			t.Errorf("%s: got %v, want a 400 naming %q", tc.name, err, tc.want)
		}
	}
	sr, err := DecodeShard(strings.NewReader(valid + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Spec.Kind != "table3" || len(sr.Units) != 1 {
		t.Errorf("decoded %+v", sr)
	}

	capped := func(body string) io.Reader {
		return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(body)), 16)
	}
	for name, decode := range map[string]func(io.Reader) error{
		"shard": func(r io.Reader) error { _, err := DecodeShard(r); return err },
		"sweep": func(r io.Reader) error { _, err := DecodeRequest(r); return err },
	} {
		var he *HTTPError
		if err := decode(capped(valid)); !errors.As(err, &he) || he.Status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body got %v, want a 413", name, err)
		}
	}
}

func TestUnitKeyIsSeedContentAddressed(t *testing.T) {
	a := table2Spec(t, 1, 2, 3)
	b := table2Spec(t, 3, 9)
	// Seed 3 is unit 2 of sweep a and unit 0 of sweep b: same key, so the
	// same ring owner computes it in both sweeps.
	if a.UnitKey(2) != b.UnitKey(0) {
		t.Error("same (kind, tries, seed) produced different unit keys")
	}
	if a.UnitKey(0) == a.UnitKey(1) {
		t.Error("different seeds share a unit key")
	}
	// A parameter change re-keys every unit.
	c := *a
	c.RandomTries = 7
	if a.UnitKey(0) == c.UnitKey(0) {
		t.Error("random_tries change did not change the unit key")
	}
}

func TestStandaloneSweepMatchesHarness(t *testing.T) {
	m := newTestManager(t, nil)
	sp := table2Spec(t, 1, 2)
	out, p, err := runSweep(t, m, sp)
	if err != nil {
		t.Fatal(err)
	}
	requireEveryUnitOnce(t, p, 2)
	for u, node := range p.units {
		if node != "local" {
			t.Errorf("unit %d reported by %q, want \"local\" without a dispatcher", u, node)
		}
	}
	var body ResultBody
	if err := json.Unmarshal(out, &body); err != nil {
		t.Fatal(err)
	}
	// The distributed reduction must agree with the single-process
	// harness sweep: same seeds, same aggregation.
	want, err := exp.SweepTable2(context.Background(), sp.Seeds, sp.RandomTries, exp.Harness{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(body.Table2)
	ref, _ := json.Marshal(want)
	if !bytes.Equal(got, ref) {
		t.Errorf("sweep body diverges from exp.SweepTable2:\n got %s\nwant %s", got, ref)
	}
	if body.Summary != want.Format() {
		t.Error("summary diverges from the harness rendering")
	}
}

// blockingDispatcher owns every unit and blocks RunShard until released,
// so tests can cancel mid-sweep deterministically.
type blockingDispatcher struct {
	release chan struct{}
	entered chan struct{} // when non-nil, signaled as RunShard starts
	fail    bool
	runs    int
	sat     bool
	satN    int
}

func (d *blockingDispatcher) Self() string                   { return "self" }
func (d *blockingDispatcher) Preference(key string) []string { return []string{"peer", "self"} }
func (d *blockingDispatcher) Saturated(ctx context.Context, node string) bool {
	d.satN++
	return d.sat
}

func (d *blockingDispatcher) RunShard(ctx context.Context, node string, sr ShardRequest) (*ShardResponse, error) {
	d.runs++
	if d.entered != nil {
		d.entered <- struct{}{}
	}
	if d.release != nil {
		select {
		case <-d.release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if d.fail {
		return nil, errors.New("injected shard failure")
	}
	out := &ShardResponse{}
	for _, u := range sr.Units {
		sp, err := sr.Spec.Normalize(0)
		if err != nil {
			return nil, err
		}
		res, err := RunUnit(sp, u, nil)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
	}
	return out, nil
}

func TestShardFailureFallsBackLocalZeroLostUnits(t *testing.T) {
	// Reference body from a standalone (dispatcherless) run.
	ref, _, err := runSweep(t, newTestManager(t, nil), table2Spec(t, 1, 2, 3))
	if err != nil {
		t.Fatalf("reference sweep: %v", err)
	}

	// Every unit is owned by a peer whose RunShard always fails: the
	// coordinator must degrade every shard to local computation and the
	// body must not change by a byte.
	m := newTestManager(t, nil)
	d := &blockingDispatcher{fail: true}
	m.SetDispatcher(d)
	body, p, err := runSweep(t, m, table2Spec(t, 1, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if d.runs == 0 {
		t.Error("dispatcher was never consulted")
	}
	if !bytes.Equal(body, ref) {
		t.Error("failover body differs from standalone body")
	}
	// Local completions carry the dispatcher's own node label.
	requireEveryUnitOnce(t, p, 3)
	for u, node := range p.units {
		if node != "self" {
			t.Errorf("unit %d reported by %q, want the dispatcher's Self()", u, node)
		}
	}
}

func TestSaturatedPeerSkippedBeforeDialing(t *testing.T) {
	m := newTestManager(t, nil)
	d := &blockingDispatcher{sat: true}
	m.SetDispatcher(d)
	if _, p, err := runSweep(t, m, table2Spec(t, 1, 2)); err != nil {
		t.Fatal(err)
	} else {
		requireEveryUnitOnce(t, p, 2)
	}
	if d.runs != 0 {
		t.Errorf("RunShard called %d times despite saturation", d.runs)
	}
	if d.satN == 0 {
		t.Error("Saturated was never consulted")
	}
}

func TestCancelMidSweepReturnsCanceled(t *testing.T) {
	m := newTestManager(t, nil)
	d := &blockingDispatcher{release: make(chan struct{}), entered: make(chan struct{}, 3)}
	m.SetDispatcher(d)
	sp := table2Spec(t, 1, 2, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &progressLog{units: map[int]string{}}
	type outcome struct {
		body []byte
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		body, err := m.Run(ctx, sp, p)
		done <- outcome{body, err}
	}()
	<-d.entered // the first shard is in flight
	cancel()
	got := <-done
	if !errors.Is(got.err, context.Canceled) || got.body != nil {
		t.Fatalf("canceled Run: body %q, err %v; want context.Canceled", got.body, got.err)
	}
	if len(p.units) != 0 {
		t.Errorf("canceled sweep reported %d completed units", len(p.units))
	}
}

func TestRunShardLocalValidation(t *testing.T) {
	m := newTestManager(t, nil)
	wire := table2Spec(t, 1, 2).Wire()
	if _, err := m.RunShardLocal(context.Background(), &ShardRequest{Spec: wire}); err == nil {
		t.Error("empty unit list accepted")
	}
	if _, err := m.RunShardLocal(context.Background(), &ShardRequest{Spec: wire, Units: []int{2}}); err == nil {
		t.Error("out-of-range unit accepted")
	}
	resp, err := m.RunShardLocal(context.Background(), &ShardRequest{Spec: wire, Units: []int{1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(resp.Results))
	}
	// Results come back in request order: unit 1 is seed 2.
	want, err := RunUnit(table2Spec(t, 1, 2), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Results[0], want) {
		t.Error("shard results not in request order")
	}
}

func TestEnqueueBackpressureRetries(t *testing.T) {
	// The first two offers hit a full queue; the unit must still run.
	var offers atomic.Int32
	enq := func(fn func()) error {
		if offers.Add(1) <= 2 {
			return ErrQueueFull
		}
		go fn()
		return nil
	}
	m := newTestManager(t, func(c *Config) { c.Enqueue = enq })
	if _, _, err := runSweep(t, m, table2Spec(t, 1)); err != nil {
		t.Fatal(err)
	}
	if n := offers.Load(); n < 3 {
		t.Errorf("%d offers, want >= 3", n)
	}
}

func TestManagerAccessors(t *testing.T) {
	if got := newTestManager(t, func(c *Config) { c.MaxSeeds = 7 }).MaxSeeds(); got != 7 {
		t.Fatalf("MaxSeeds = %d, want 7", got)
	}
	if got := newTestManager(t, nil).MaxSeeds(); got != 64 {
		t.Fatalf("default MaxSeeds = %d, want 64", got)
	}
	// A negative cap is not "no cap": it takes the default too.
	if got := newTestManager(t, func(c *Config) { c.MaxSeeds = -1 }).MaxSeeds(); got != 64 {
		t.Fatalf("MaxSeeds -1 = %d, want the default 64", got)
	}
}

func TestUnknownKindFailsSweep(t *testing.T) {
	// A spec the normalizer would never produce: the coordinator must
	// surface the unit error, not hang.
	m := newTestManager(t, nil)
	_, _, err := runSweep(t, m, &Spec{Kind: "nope", Seeds: []int64{1, 2}})
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("error %v does not name the unknown kind", err)
	}
}

func TestReduceErrors(t *testing.T) {
	sp := table2Spec(t, 1, 2)
	if _, err := sp.Reduce(make([]json.RawMessage, 1)); err == nil {
		t.Fatal("Reduce accepted a short result slice")
	}
	bad := []json.RawMessage{json.RawMessage(`{`), json.RawMessage(`{}`)}
	if _, err := sp.Reduce(bad); err == nil || !strings.Contains(err.Error(), "unit 0") {
		t.Fatalf("Reduce on corrupt table2 unit: %v, want unit-indexed decode error", err)
	}
	req := Request{Kind: "table3", Seeds: []int64{1, 2}}
	sp3, err := req.Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp3.Reduce(bad); err == nil || !strings.Contains(err.Error(), "unit 0") {
		t.Fatalf("Reduce on corrupt table3 unit: %v, want unit-indexed decode error", err)
	}
	if _, err := (&Spec{Kind: "nope", Seeds: []int64{1}}).Reduce(bad[1:]); err == nil {
		t.Fatal("Reduce accepted an unknown kind")
	}
}

func TestTable3SweepSingleSeed(t *testing.T) {
	req := Request{Kind: "table3", Seeds: []int64{1}}
	sp, err := req.Normalize(64)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := runSweep(t, newTestManager(t, nil), sp)
	if err != nil {
		t.Fatal(err)
	}
	var body ResultBody
	if err := json.Unmarshal(out, &body); err != nil {
		t.Fatalf("decoding body: %v", err)
	}
	if body.Kind != "table3" || body.Table3 == nil || body.Table2 != nil {
		t.Fatalf("body kind %q table3=%v table2=%v", body.Kind, body.Table3 != nil, body.Table2 != nil)
	}
	if body.Summary != body.Table3.Format() {
		t.Fatal("summary does not round-trip through the reduced table3 result")
	}
}
