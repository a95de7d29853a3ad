package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"copack/internal/anneal"
	"copack/internal/gen"
)

// shrinkBench makes runBench finish in test time: one worker count, a
// short pricing loop and a small portfolio budget. The code path is
// identical to the real bench.
func shrinkBench(t *testing.T) {
	t.Helper()
	oldW, oldM, oldP := benchWorkerCounts, benchPricingMoves, benchPortfolioBudget
	benchWorkerCounts = []int{1, 2}
	benchPricingMoves = 20_000
	benchPortfolioBudget = 5
	t.Cleanup(func() { benchWorkerCounts, benchPricingMoves, benchPortfolioBudget = oldW, oldM, oldP })
}

func TestBenchJSONSchemaRoundTrip(t *testing.T) {
	shrinkBench(t)
	dir := t.TempDir()
	var code int
	out := captureStdout(t, func() {
		code = realMain([]string{"-bench", "-json", "-benchtag", "unittest", "-out", dir})
	})
	if code != 0 {
		t.Fatalf("realMain(-bench -json) = %d, want 0", code)
	}
	if !strings.Contains(out, "Parallel speedup") {
		t.Errorf("bench output missing header:\n%s", out)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*-unittest.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one tagged BENCH json, got %v (err %v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}

	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("BENCH json does not round-trip into benchReport: %v", err)
	}
	// 6 surfaces x len(workerCounts) + move-pricing + the two to-target
	// entries + the fixed/adaptive portfolio pair.
	wantEntries := 6*len(benchWorkerCounts) + 1 + 2 + 2
	if len(rep.Entries) != wantEntries {
		t.Errorf("%d entries, want %d", len(rep.Entries), wantEntries)
	}
	var pricing *benchEntry
	toTarget := map[string]*benchEntry{}
	for i := range rep.Entries {
		e := &rep.Entries[i]
		if e.Seconds < 0 {
			t.Errorf("entry %s workers=%d has negative Seconds", e.Name, e.Workers)
		}
		if e.BytesPerOp <= 0 {
			t.Errorf("entry %s workers=%d: bytes_per_op = %v, want > 0", e.Name, e.Workers, e.BytesPerOp)
		}
		if e.Name == "exchange/move-pricing" {
			pricing = e
		}
		if strings.HasPrefix(e.Name, "exchange/to-target/") {
			toTarget[strings.TrimPrefix(e.Name, "exchange/to-target/")] = e
		}
	}
	for _, name := range []string{"dfa-cold", "mcmf-warm"} {
		e := toTarget[name]
		if e == nil {
			t.Errorf("missing exchange/to-target/%s entry", name)
			continue
		}
		if e.Moves <= 0 {
			t.Errorf("to-target/%s: moves = %v, want > 0", name, e.Moves)
		}
		if e.TargetCost == 0 {
			t.Errorf("to-target/%s: target_cost is unset", name)
		}
	}
	port := map[string]*benchEntry{}
	for i := range rep.Entries {
		e := &rep.Entries[i]
		if strings.HasPrefix(e.Name, "anneal/portfolio/") {
			port[strings.TrimPrefix(e.Name, "anneal/portfolio/")] = e
		}
	}
	for _, name := range []string{"fixed", "adaptive"} {
		e := port[name]
		if e == nil {
			t.Errorf("missing anneal/portfolio/%s entry", name)
			continue
		}
		if e.Moves <= 0 {
			t.Errorf("portfolio/%s: moves = %v, want > 0", name, e.Moves)
		}
		if e.TargetCost == 0 {
			t.Errorf("portfolio/%s: target_cost is unset", name)
		}
	}
	if f, a := port["fixed"], port["adaptive"]; f != nil && a != nil {
		// The acceptance gate, re-checked from the persisted file: the
		// portfolio's Eq 3 cost never exceeds the fixed baseline's, and the
		// baseline was granted at least the portfolio's move budget.
		if a.TargetCost > f.TargetCost {
			t.Errorf("portfolio adaptive cost %v > fixed cost %v", a.TargetCost, f.TargetCost)
		}
		if f.Moves < a.Moves {
			t.Errorf("fixed baseline ran %v moves, below the adaptive %v", f.Moves, a.Moves)
		}
	}
	if snap := rep.SolverInternals["anneal/portfolio"]; snap == nil {
		t.Error("solver_internals missing anneal/portfolio")
	} else if snap.Counters["portfolio/trace_hash"] == 0 {
		t.Error("portfolio internals missing the trace_hash counter")
	}
	// The alloc columns are part of the schema proper, not an omitempty
	// extra: every entry carries them even when zero.
	if n := bytes.Count(data, []byte(`"allocs_per_op"`)); n != len(rep.Entries) {
		t.Errorf("allocs_per_op appears %d times, want %d (one per entry)", n, len(rep.Entries))
	}
	if pricing == nil {
		t.Fatal("no exchange/move-pricing entry")
	}
	if pricing.AllocsPerMove == nil {
		t.Error("pricing entry omitted allocs_per_move; the 0-alloc invariant must be explicit")
	} else if *pricing.AllocsPerMove != 0 && !raceEnabled {
		// The race detector's instrumentation allocates, so the strict
		// zero only holds on uninstrumented builds (same carve-out as
		// TestPricedMoveZeroAllocs).
		t.Errorf("allocs_per_move = %v, want 0", *pricing.AllocsPerMove)
	}
	if pricing.NsPerMove <= 0 {
		t.Errorf("ns_per_move = %v, want > 0", pricing.NsPerMove)
	}

	// The workers=1 runs carry their telemetry into solver_internals.
	for _, name := range []string{"exchange/restarts4", "power/solve96x96"} {
		snap := rep.SolverInternals[name]
		if snap == nil {
			t.Errorf("solver_internals missing %q", name)
			continue
		}
		if len(snap.Keys()) == 0 {
			t.Errorf("solver_internals[%q] is empty", name)
		}
	}
	if snap := rep.SolverInternals["exchange/restarts4"]; snap != nil {
		if snap.Counters["exchange/restart0/moves_priced"] == 0 {
			t.Error("exchange internals missing per-restart move counters")
		}
	}
	if snap := rep.SolverInternals["power/solve96x96"]; snap != nil {
		if snap.Counters["iterations"] == 0 {
			t.Error("power internals missing iteration counter")
		}
	}

	// Re-marshaling the decoded report must reproduce the file byte for
	// byte: nothing in the schema is lossy.
	again, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), data) {
		t.Error("BENCH json is not a lossless round-trip through benchReport")
	}
}

// shrinkLargeTier swaps the large-tier knobs for versions that finish in
// test time: a 65×65 grid (still a full multigrid hierarchy, 65 = 2⁶+1), a
// few-hundred-finger circuit through the same generator geometry, and a
// short cooling schedule. The code path — solver selection, fingerprint
// comparison, JSON schema — is identical to the committed large bench.
func shrinkLargeTier(t *testing.T) {
	t.Helper()
	oldN, oldC, oldS := benchLargeGridN, benchLargeCircuit, benchLargeSchedule
	benchLargeGridN = 65
	benchLargeCircuit = func() gen.TestCircuit {
		c := gen.Large()
		c.Fingers = 512
		return c
	}
	benchLargeSchedule = anneal.Schedule{InitialTemp: 0.5, FinalTemp: 0.1, Cooling: 0.5, MovesPerTemp: 200}
	t.Cleanup(func() { benchLargeGridN, benchLargeCircuit, benchLargeSchedule = oldN, oldC, oldS })
}

// The large tier must produce the full surface set — the 513-class IR
// solve plus the large-N exchange — with the alloc columns filled and the
// same lossless round-trip as the default tier.
func TestBenchLargeTierSmoke(t *testing.T) {
	shrinkBench(t)
	shrinkLargeTier(t)
	dir := t.TempDir()
	var code int
	captureStdout(t, func() {
		code = realMain([]string{"-bench", "-json", "-size", "large", "-benchtag", "largesmoke", "-out", dir})
	})
	if code != 0 {
		t.Fatalf("realMain(-bench -size large) = %d, want 0", code)
	}

	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*-largesmoke.json"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("expected exactly one tagged BENCH json, got %v (err %v)", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("large BENCH json does not round-trip into benchReport: %v", err)
	}
	if rep.Size != "large" {
		t.Errorf("report size %q, want large", rep.Size)
	}
	// 6 default + 2 large surfaces per worker count, plus move-pricing, the
	// two to-target entries and the fixed/adaptive portfolio pair.
	wantEntries := 8*len(benchWorkerCounts) + 1 + 2 + 2
	if len(rep.Entries) != wantEntries {
		t.Errorf("%d entries, want %d", len(rep.Entries), wantEntries)
	}
	perSurface := map[string]int{}
	for _, e := range rep.Entries {
		perSurface[e.Name]++
	}
	for _, name := range []string{"power/mgcg512", "exchange/largeN"} {
		if perSurface[name] != len(benchWorkerCounts) {
			t.Errorf("surface %s has %d entries, want %d", name, perSurface[name], len(benchWorkerCounts))
		}
		if snap := rep.SolverInternals[name]; snap == nil || len(snap.Keys()) == 0 {
			t.Errorf("solver_internals missing %q", name)
		}
	}
	again, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(again, '\n'), data) {
		t.Error("large BENCH json is not a lossless round-trip through benchReport")
	}
}

// An unknown tier is a usage error, not a silent fallback.
func TestBenchUnknownSize(t *testing.T) {
	shrinkBench(t)
	if got := realMain([]string{"-bench", "-size", "jumbo", "-out", t.TempDir()}); got != 1 {
		t.Errorf("realMain(-bench -size jumbo) = %d, want 1", got)
	}
}

func TestBenchUnwritableOut(t *testing.T) {
	shrinkBench(t)
	bad := filepath.Join(t.TempDir(), "no-such-dir")
	if got := realMain([]string{"-bench", "-json", "-out", bad}); got != 1 {
		t.Errorf("realMain(-bench -json -out <unwritable>) = %d, want 1", got)
	}
}
