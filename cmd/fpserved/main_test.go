package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"copack"
	"copack/internal/service"
)

// syncBuffer is a bytes.Buffer safe for the cross-goroutine writes
// realMain does while the test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenLine = regexp.MustCompile(`listening on (http://[^\s]+)`)

func TestRealMainServeAndDrain(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stdout, stderr syncBuffer

	exit := make(chan int, 1)
	go func() {
		exit <- realMain(ctx, []string{"-addr", "127.0.0.1:0", "-queue", "4", "-workers", "1"},
			&stdout, &stderr)
	}()

	// Scrape the bound address from the startup line.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenLine.FindStringSubmatch(stdout.String()); m != nil {
			base = m[1]
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if base == "" {
		t.Fatalf("no listening line; stdout=%q stderr=%q", stdout.String(), stderr.String())
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// A full synchronous plan through the real binary wiring.
	tc := copack.TestCircuit{Name: "served", Fingers: 16,
		BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
	p, err := copack.BuildCircuit(tc, copack.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"design":  copack.FormatDesign(p),
		"options": map[string]any{"seed": 3, "skip_exchange": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/plan", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	planBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plan: %d: %s", resp.StatusCode, planBody)
	}
	var pr struct {
		Solution string `json:"solution"`
	}
	if err := json.Unmarshal(planBody, &pr); err != nil || !strings.Contains(pr.Solution, "order") {
		t.Fatalf("plan body lacks a solution: %v %s", err, planBody)
	}

	// Signal-equivalent shutdown: cancel the context, expect a clean
	// drain and exit 0.
	cancel()
	select {
	case code := <-exit:
		if code != 0 {
			t.Errorf("exit code %d; stderr=%q", code, stderr.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("realMain did not exit after cancel")
	}
	out := stdout.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained, exiting") {
		t.Errorf("drain messages missing from stdout: %q", out)
	}
}

func TestRealMainBadFlag(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := realMain(context.Background(), []string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad flag exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined") {
		t.Errorf("stderr %q lacks flag error", stderr.String())
	}
}

func TestRealMainBadAddr(t *testing.T) {
	var stdout, stderr syncBuffer
	code := realMain(context.Background(),
		[]string{"-addr", "256.256.256.256:1"}, &stdout, &stderr)
	if code != 1 {
		t.Errorf("bad addr exit = %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "listen") {
		t.Errorf("stderr %q lacks listen error", stderr.String())
	}
}

// TestRealMainHelp keeps the usage text wired to the private FlagSet
// rather than the global one.
func TestRealMainHelp(t *testing.T) {
	var stdout, stderr syncBuffer
	if code := realMain(context.Background(), []string{"-h"}, &stdout, &stderr); code != 2 {
		t.Errorf("-h exit = %d, want 2", code)
	}
	for _, flagName := range []string{"-addr", "-queue", "-cache", "-max-budget", "-drain-timeout",
		"-node-id", "-peers", "-read-header-timeout", "-read-timeout", "-write-timeout"} {
		if !strings.Contains(stderr.String(), flagName) {
			t.Errorf("usage output missing %s", flagName)
		}
	}
}

// startServed boots realMain with args in the background and returns the
// scraped base URL plus a stop function that cancels and waits for exit 0.
func startServed(t *testing.T, args ...string) (string, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- realMain(ctx, append([]string{"-addr", "127.0.0.1:0", "-workers", "1"}, args...),
			&stdout, &stderr)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenLine.FindStringSubmatch(stdout.String()); m != nil {
			base := m[1]
			return base, func() {
				cancel()
				select {
				case code := <-exit:
					if code != 0 {
						t.Errorf("exit code %d; stderr=%q", code, stderr.String())
					}
				case <-time.After(15 * time.Second):
					t.Fatal("realMain did not exit after cancel")
				}
			}
		}
		select {
		case code := <-exit:
			cancel()
			t.Fatalf("realMain exited early with %d; stderr=%q", code, stderr.String())
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	t.Fatalf("no listening line; stdout=%q stderr=%q", stdout.String(), stderr.String())
	return "", nil
}

func servedPlanBody(t *testing.T, seed int64) []byte {
	t.Helper()
	tc := copack.TestCircuit{Name: "served", Fingers: 16,
		BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
	p, err := copack.BuildCircuit(tc, copack.BuildOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{
		"design":  copack.FormatDesign(p),
		"options": map[string]any{"seed": seed, "skip_exchange": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestParsePeers(t *testing.T) {
	cases := []struct {
		name, self, spec string
		want             map[string]string
		wantErr          bool
	}{
		{"empty spec", "a", "", map[string]string{"a": ""}, false},
		{"two peers", "a", "b=http://x:1,c=http://y:2/",
			map[string]string{"a": "", "b": "http://x:1", "c": "http://y:2"}, false},
		{"self entry ignored", "a", "a=http://me:1,b=http://x:1",
			map[string]string{"a": "", "b": "http://x:1"}, false},
		{"spaces tolerated", "a", " b=http://x:1 , c=http://y:2 ",
			map[string]string{"a": "", "b": "http://x:1", "c": "http://y:2"}, false},
		{"missing equals", "a", "bhttp://x:1", nil, true},
		{"empty url", "a", "b=", nil, true},
		{"dash in id", "a", "b-2=http://x:1", nil, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parsePeers(c.self, c.spec)
			if c.wantErr {
				if err == nil {
					t.Fatalf("parsePeers(%q) accepted, got %v", c.spec, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("parsePeers(%q): %v", c.spec, err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("got %v, want %v", got, c.want)
			}
			for k, v := range c.want {
				if got[k] != v {
					t.Errorf("node %s = %q, want %q", k, got[k], v)
				}
			}
		})
	}
}

func TestRealMainFleetFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"peers without node-id", []string{"-peers", "b=http://x:1"}, "-peers requires -node-id"},
		{"dash in node-id", []string{"-node-id", "a-1"}, "node ID"},
		{"bad peer entry", []string{"-node-id", "a", "-peers", "nope"}, "id=url"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr syncBuffer
			if code := realMain(context.Background(), c.args, &stdout, &stderr); code != 2 {
				t.Errorf("exit = %d, want 2", code)
			}
			if !strings.Contains(stderr.String(), c.want) {
				t.Errorf("stderr %q lacks %q", stderr.String(), c.want)
			}
		})
	}
}

// TestRealMainSingleNodeFleet boots fleet mode with no peers: a one-node
// ring serves everything locally, with prefixed job IDs.
func TestRealMainSingleNodeFleet(t *testing.T) {
	base, stop := startServed(t, "-node-id", "solo")
	defer stop()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/jobs", "application/json", bytes.NewReader(servedPlanBody(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sub.ID, "solo-j") {
		t.Errorf("job id %q lacks the solo- prefix", sub.ID)
	}
}

// TestRealMainNegativeLimits: negative -queue and -sweep-seeds take the
// service defaults instead of panicking at startup or lifting the seed
// cap, and the server still drains and exits 0.
func TestRealMainNegativeLimits(t *testing.T) {
	base, stop := startServed(t, "-queue", "-1", "-sweep-seeds", "-1")
	defer stop()
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(servedPlanBody(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit with -queue -1: %d: %s", resp.StatusCode, data)
	}
	resp, err = http.Post(base+"/sweeps", "application/json", strings.NewReader(`{"kind":"table3","num_seeds":65}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("65 seeds with -sweep-seeds -1: %d: %s, want 400", resp.StatusCode, data)
	}
}

// TestRealMainDeadPeerDegradesLocal points a node at a peer that was
// never started: every request — including ones the dead peer owns —
// must still answer 200 by failing over to local computation.
func TestRealMainDeadPeerDegradesLocal(t *testing.T) {
	// 127.0.0.1:1 is reserved and refuses connections immediately.
	base, stop := startServed(t, "-node-id", "a", "-peers", "b=http://127.0.0.1:1")
	defer stop()

	// A handful of seeds guarantees some keys hash to the dead peer b.
	for seed := int64(0); seed < 6; seed++ {
		resp, err := http.Post(base+"/plan", "application/json", bytes.NewReader(servedPlanBody(t, seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", seed, resp.StatusCode, data)
		}
		if got := resp.Header.Get("X-Copack-Node"); got != "a" {
			t.Errorf("seed %d answered by %q, want a", seed, got)
		}
	}
}

// TestWriteTimeoutFollowsServiceBudget: without -write-timeout the HTTP
// write timeout is the service's budget cap plus a minute. The service
// turns a non-positive -max-budget into its 2 min default, so
// -max-budget 0 gives 3 min, not the 1 min the raw flag would.
func TestWriteTimeoutFollowsServiceBudget(t *testing.T) {
	for _, c := range []struct{ flag, maxBudget, want time.Duration }{
		{0, 0, 3 * time.Minute},
		{0, -59 * time.Second, 3 * time.Minute},
		{0, 50 * time.Millisecond, time.Minute + 50*time.Millisecond},
		{-time.Second, 5 * time.Minute, 6 * time.Minute},
		{5 * time.Second, 0, 5 * time.Second},
	} {
		svc := service.New(service.Config{Workers: 1, MaxBudget: c.maxBudget})
		if got := httpWriteTimeout(c.flag, svc); got != c.want {
			t.Errorf("-write-timeout %v -max-budget %v: %v, want %v", c.flag, c.maxBudget, got, c.want)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		svc.Shutdown(ctx)
		cancel()
	}
}
