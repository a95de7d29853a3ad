package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"copack"
)

func TestRunGeneratedInstance(t *testing.T) {
	dir := t.TempDir()
	cfg := config{
		circuit: 1, alg: "dfa", tiers: 1, seed: 1, skipExchange: true,
		runDRC: true, improveVias: true,
		out:     filepath.Join(dir, "plan.copack"),
		svgPath: filepath.Join(dir, "r.svg"),
		irPath:  filepath.Join(dir, "ir.svg"),
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"plan.copack", "r.svg", "ir.svg"} {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil || len(data) == 0 {
			t.Errorf("%s: %v (%d bytes)", f, err, len(data))
		}
	}
	// The emitted plan file must round-trip through -in.
	cfg2 := config{in: filepath.Join(dir, "plan.copack"), alg: "ifa", seed: 1, skipExchange: true}
	if err := run(cfg2); err != nil {
		t.Fatal(err)
	}
	plan, _ := os.ReadFile(filepath.Join(dir, "plan.copack"))
	if !strings.Contains(string(plan), "order bottom") {
		t.Error("plan file lacks the planned order")
	}
}

func TestRunMCMFInstance(t *testing.T) {
	// The flow-based engine plugs into the same -alg plumbing as the
	// heuristics; a full generated-instance run must plan and emit cleanly.
	dir := t.TempDir()
	cfg := config{
		circuit: 1, alg: "mcmf", tiers: 1, seed: 1, skipExchange: true,
		out: filepath.Join(dir, "plan.copack"),
	}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	plan, err := os.ReadFile(filepath.Join(dir, "plan.copack"))
	if err != nil || len(plan) == 0 {
		t.Fatalf("plan.copack: %v (%d bytes)", err, len(plan))
	}
	if !strings.Contains(string(plan), "order bottom") {
		t.Error("plan file lacks the planned order")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(config{circuit: 9, alg: "dfa"}); err == nil {
		t.Error("bad circuit number accepted")
	}
	if err := run(config{circuit: 1, alg: "banana"}); err == nil {
		t.Error("bad algorithm accepted")
	}
	if err := run(config{in: "/nonexistent/file.copack", alg: "dfa"}); err == nil {
		t.Error("missing input file accepted")
	}
	if err := run(config{circuit: 0, fingers: 3, alg: "dfa", tiers: 1}); err == nil {
		t.Error("impossible custom instance accepted")
	}
}

// TestRunNoPowerNet: a design file without a power net fails before any
// planning with copack.ErrNoPowerNet, and the command exits 1.
func TestRunNoPowerNet(t *testing.T) {
	dir := t.TempDir()
	design := filepath.Join(dir, "plan.copack")
	if err := run(config{circuit: 1, alg: "dfa", tiers: 1, seed: 1, skipExchange: true, out: design}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(design)
	if err != nil {
		t.Fatal(err)
	}
	nopower := filepath.Join(dir, "nopower.copack")
	if err := os.WriteFile(nopower, []byte(strings.ReplaceAll(string(data), " power\n", " signal\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(config{in: nopower, alg: "dfa"}); !errors.Is(err, copack.ErrNoPowerNet) {
		t.Errorf("run on a design without a power net: %v, want ErrNoPowerNet", err)
	}
	if code := realMain([]string{"-in", nopower}); code != 1 {
		t.Errorf("realMain exit code %d, want 1", code)
	}
}

func TestRunTimeoutStillSucceeds(t *testing.T) {
	// A tiny -timeout must not turn into an error: the run reports the
	// best-so-far plan as PARTIAL and exits zero.
	cfg := config{circuit: 5, alg: "dfa", tiers: 1, seed: 1, timeout: 50 * time.Millisecond}
	start := time.Now()
	if err := run(cfg); err != nil {
		t.Fatalf("timed-out run became an error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("run ignored the 50ms budget (%v)", elapsed)
	}
}

func TestRealMainFlags(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.json")
	// A full flag-driven run: -timeout keeps it bounded, -metrics writes
	// the telemetry snapshot, both via the FlagSet path.
	code := realMain([]string{
		"-circuit", "1", "-alg", "DFA", "-skip-exchange",
		"-timeout", "30s", "-metrics", metrics,
	})
	if code != 0 {
		t.Fatalf("realMain exit code %d", code)
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("-metrics file: %v", err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Phases   []struct {
			Name string `json:"name"`
		} `json:"phases"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("-metrics wrote invalid JSON: %v", err)
	}
	if len(snap.Phases) == 0 {
		t.Error("metrics snapshot has no phase events")
	}
}

func TestRealMainBadFlags(t *testing.T) {
	if code := realMain([]string{"-no-such-flag"}); code != 2 {
		t.Errorf("unknown flag: exit code %d, want 2", code)
	}
	if code := realMain([]string{"-timeout", "banana"}); code != 2 {
		t.Errorf("bad -timeout value: exit code %d, want 2", code)
	}
	if code := realMain([]string{"-circuit", "9"}); code != 1 {
		t.Errorf("bad circuit: exit code %d, want 1", code)
	}
}

func TestRealMainUnwritableOutputs(t *testing.T) {
	// Every output flag must surface an unwritable path as exit code 1,
	// not a crash or silent success.
	outs := [][]string{
		{"-metrics", "/nonexistent-dir/metrics.json"},
		{"-out", "/nonexistent-dir/plan.copack"},
		{"-svg", "/nonexistent-dir/r.svg"},
		{"-irmap", "/nonexistent-dir/ir.svg"},
	}
	for _, extra := range outs {
		args := append([]string{"-circuit", "1", "-skip-exchange"}, extra...)
		if code := realMain(args); code != 1 {
			t.Errorf("%v: exit code %d, want 1", extra, code)
		}
	}
}

// TestRunRestarts: -restarts N runs N seeded anneals and keeps the best.
// They start cold at ψ = 1 and warm at ψ = 4, which the run's telemetry
// shows as the temperature the first restart entered at.
func TestRunRestarts(t *testing.T) {
	for _, c := range []struct {
		tiers int
		temp  float64
	}{{1, 1}, {4, 0.05}} {
		metrics := filepath.Join(t.TempDir(), "metrics.json")
		cfg := config{circuit: 1, alg: "dfa", tiers: c.tiers, seed: 1, restarts: 6, metricsPath: metrics}
		if err := run(cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(metrics)
		if err != nil {
			t.Fatal(err)
		}
		var snap copack.MetricsSnapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			t.Fatal(err)
		}
		if got := snap.Gauges["exchange/restarts"]; got != 6 {
			t.Errorf("ψ=%d: exchange/restarts = %v, want 6", c.tiers, got)
		}
		if got := snap.Gauges["anneal/restart0/temp_initial"]; got != c.temp {
			t.Errorf("ψ=%d: restart 0 entered at %v, want %v", c.tiers, got, c.temp)
		}
	}
}

// TestRunRestartsAboveCap: a restart count above the exchange's 4096 cap
// fails the run, and the command exits 1.
func TestRunRestartsAboveCap(t *testing.T) {
	if err := run(config{circuit: 1, alg: "dfa", tiers: 1, seed: 1, restarts: 5000}); err == nil {
		t.Error("5000 restarts accepted")
	}
	if code := realMain([]string{"-circuit", "1", "-restarts", "5000"}); code != 1 {
		t.Errorf("-restarts 5000: exit code %d, want 1", code)
	}
}
