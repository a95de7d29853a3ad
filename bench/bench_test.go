package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"copack/internal/service"
)

// smokeSizes shrink every workload so all four, untraced and traced, run
// in a few seconds while still crossing every code path.
var smokeSizes = sizes{
	unique:       40,
	hot:          8,
	zipfDraws:    100,
	sweepSets:    2,
	sweepSeeds:   1,
	sweepEvery:   4,
	setupRepeats: 1,
	probeOps:     20,
	replayPlans:  5,
	replayUnits:  1,
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and plans for several seconds")
	}
	decl, err := loadDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, mode := range []struct {
		trace string
		decls []metricDecl
	}{
		{"0", decl.EndToEnd},
		{filepath.Join(dir, "trace.json"), decl.PerLayer},
	} {
		out := filepath.Join(dir, "report.json")
		var stdout, stderr bytes.Buffer
		args := []string{"-decl", "../BENCHMARK.json", "-seconds", "0.3", "-trace", mode.trace, "-out", out}
		if code := run(args, &stdout, &stderr, smokeSizes); code != 0 {
			t.Fatalf("trace=%s: exit %d\nstdout:\n%s\nstderr:\n%s", mode.trace, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var last struct {
			Correct           bool
			Attempted, Failed int
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result object: %v", err)
		}
		if !last.Correct || last.Failed != 0 || last.Attempted == 0 {
			t.Fatalf("trace=%s: result %+v\n%s", mode.trace, last, stdout.String())
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			wr := rep.Workloads[w.name]
			if wr == nil {
				t.Fatalf("trace=%s: no report for %s", mode.trace, w.name)
			}
			if wr.OpsFailed[0] != 0 {
				t.Errorf("%s: %d failed ops: %v", w.name, wr.OpsFailed[0], wr.Errors)
			}
			for _, d := range mode.decls {
				s := wr.Metrics[d.Name]
				if s == nil || len(s.Values) != 1 {
					t.Errorf("%s: %s not emitted", w.name, d.Name)
					continue
				}
				// A tail percentile may be null at this scale; nothing else.
				if s.Values[0] == nil && !strings.Contains(d.Name, "p90") {
					t.Errorf("%s: %s is null", w.name, d.Name)
				}
			}
			if mode.trace != "0" {
				if m := wr.Metrics["replay.mismatches"].Values[0]; m == nil || *m != 0 {
					t.Errorf("%s: replay mismatches %v", w.name, m)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "trace.json")); err != nil {
		t.Errorf("trace file not written: %v", err)
	}
}

func TestRequestSequenceIsSeedDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := generate(w, 7, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 7, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		if !equalInputs(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w.name)
		}
		c, err := generate(w, 8, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		if equalInputs(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same inputs", w.name)
		}
	}
}

func equalInputs(a, b *inputs) bool {
	join := func(in *inputs) []byte {
		var buf bytes.Buffer
		for _, x := range append(append([][]byte{}, in.unique...), in.hot...) {
			buf.Write(x)
			buf.WriteByte(0)
		}
		j, _ := json.Marshal([]any{in.zipf, in.sweeps})
		buf.Write(j)
		return buf.Bytes()
	}
	return bytes.Equal(join(a), join(b))
}

func TestPercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		p         float64
		want      float64
		supported bool
	}{
		{10, 50, 5, false},
		{10, 90, 9, false},
		{10, 100, 10, false},
		{10, 10, 1, false},
		{99, 90, 90, false},   // 9 samples beyond
		{100, 90, 90, true},   // exactly 10 beyond
		{999, 99, 990, false}, // 9 beyond: a p99 needs 1000 samples
		{1000, 99, 990, true}, // 10 beyond
		{1001, 99, 991, true}, // rank rounds up
		{1, 50, 1, false},
	} {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("p%g of 1..%d = %g, want %g", tc.p, tc.n, got, tc.want)
		}
		if tc.p > 50 {
			if got := tailSupported(tc.n, tc.p); got != tc.supported {
				t.Errorf("tailSupported(%d, %g) = %t, want %t", tc.n, tc.p, got, tc.supported)
			}
		}
	}
	if v := pct(seq(99), 90); !math.IsNaN(v.v) || v.samples != 99 {
		t.Errorf("p90 of 99 samples = %+v, want NaN over 99 samples", v)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, med, q3 := quartiles(seq(10)); q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestBaselineVerdicts(t *testing.T) {
	f := func(x float64) *float64 { return &x }
	steady := &summary{Q1: f(99), Median: f(100), Q3: f(101)}
	noisy := &summary{Q1: f(80), Median: f(100), Q3: f(120)}
	lower := metricDecl{Name: "plan_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricDecl{Name: "plans_per_s", Better: "higher", Bound: 0.1}
	for _, tc := range []struct {
		base *summary
		now  float64
		m    metricDecl
		want verdict
	}{
		{steady, 115, lower, worse},
		{steady, 85, lower, better},
		{steady, 105, lower, unchanged},
		{steady, 85, higher, worse},
		{steady, 115, higher, better},
		{noisy, 150, lower, unresolved},
	} {
		if got, _ := compare(tc.base, f(tc.now), tc.m); got != tc.want {
			t.Errorf("%s %g vs median 100: %s, want %s", tc.m.Better, tc.now, got, tc.want)
		}
	}
}

// TestCorruptBodyIsAFailedOp serves real plan bodies through a handler
// that corrupts chosen responses and checks that the client counts each
// corrupted one as a failed operation.
func TestCorruptBodyIsAFailedOp(t *testing.T) {
	svc := service.New(service.Config{Workers: 1})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := svc.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	var corrupt atomic.Value // func([]byte) []byte
	corrupt.Store(func(b []byte) []byte { return b })
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		svc.Handler().ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(corrupt.Load().(func([]byte) []byte)(rec.Body.Bytes()))
	}))
	defer ts.Close()

	body, err := planBody(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	other, err := planBody(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &client{hc: ts.Client(), urls: []string{ts.URL}, chk: newChecker()}
	tl := &tally{}
	c.plan(tl, 0, 0, body, 0, false)
	if tl.failed != 0 {
		t.Fatalf("clean body failed: %v", tl.errs)
	}
	for _, tc := range []struct {
		name  string
		id    int
		body  []byte
		async bool
		bad   func([]byte) []byte
	}{
		// A hit whose bytes differ from the first body for the request.
		{"changed bytes", 0, body, false, func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"seed"`), []byte(`"seed" `), 1)
		}},
		{"changed bytes, async", 0, body, true, func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"seed"`), []byte(`"seed" `), 1)
		}},
		// A first body that does not decode.
		{"truncated", 1, other, false, func(b []byte) []byte { return b[:len(b)/2] }},
	} {
		corrupt.Store(func(b []byte) []byte {
			if bytes.Contains(b, []byte(`"solution"`)) {
				return tc.bad(b)
			}
			return b
		})
		before := tl.failed
		c.plan(tl, 1, tc.id, tc.body, 0, tc.async)
		if tl.failed != before+1 {
			t.Errorf("%s: failed ops %d → %d, want one more", tc.name, before, tl.failed)
		}
	}
}
