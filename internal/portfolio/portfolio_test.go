package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"copack/internal/anneal"
)

// synthRun is a pure synthetic RunFunc: cost and counters are functions of
// (arm, restart) alone, so any scheduling of the pulls must reduce to the
// same trace.
func synthRun(_ context.Context, arm, restart int) (float64, anneal.Stats, error) {
	cost := float64((arm*31 + restart*17) % 97)
	return cost, anneal.Stats{
		Proposed: 100 + 10*arm + restart,
		Accepted: 40 + arm,
		Uphill:   5 + restart%3,
		Plateaus: 20 + arm,
	}, nil
}

func arms(n int) []Arm {
	out := make([]Arm, n)
	for i := range out {
		out[i] = Arm{Name: fmt.Sprintf("arm%d", i)}
	}
	return out
}

func TestRounds(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{1, 1}, {2, 2}, {3, 3}, {4, 3}, {5, 4}, {8, 4}, {9, 5},
	} {
		if got := rounds(tc.n); got != tc.want {
			t.Errorf("rounds(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// TestSingleArmDegenerates pins the degenerate case the exchange's fixed
// restarts run as: one arm gets the whole budget in round 0, pulls take
// restart indices 0..B−1 in order, and each pull's seed is
// SplitSeed(seed, k).
func TestSingleArmDegenerates(t *testing.T) {
	cfg := Config{Arms: arms(1), Budget: 5, Seed: 42}
	out, err := Run(context.Background(), cfg, 3, synthRun)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total != 5 || len(out.Trace) != 5 {
		t.Fatalf("Total %d, trace %d, want 5", out.Total, len(out.Trace))
	}
	for k, al := range out.Trace {
		if al.Round != 0 || al.Arm != 0 || al.Restart != k {
			t.Errorf("pull %d: round %d arm %d restart %d", k, al.Round, al.Arm, al.Restart)
		}
		if al.Seed != anneal.SplitSeed(42, k) {
			t.Errorf("pull %d: seed %d, want SplitSeed(42,%d)=%d", k, al.Seed, k, anneal.SplitSeed(42, k))
		}
	}
	if out.Arms[0].Pulls != 5 || out.Arms[0].EliminatedRound != -1 {
		t.Errorf("arm stats %+v", out.Arms[0])
	}
	// synthRun's costs for arm 0 are 0,17,34,51,68 — restart 0 wins.
	if out.BestRestart != 0 || out.BestArm != 0 || out.BestCost != 0 {
		t.Errorf("winner arm %d restart %d cost %v, want 0/0/0", out.BestArm, out.BestRestart, out.BestCost)
	}
}

// TestWinnerTieBreaksLow: equal costs must resolve to the lowest restart
// index, independent of workers.
func TestWinnerTieBreaksLow(t *testing.T) {
	flat := func(_ context.Context, _, _ int) (float64, anneal.Stats, error) {
		return 1.5, anneal.Stats{Proposed: 1}, nil
	}
	for _, workers := range []int{1, 4} {
		out, err := Run(context.Background(), Config{Arms: arms(3), Budget: 9}, workers, flat)
		if err != nil {
			t.Fatal(err)
		}
		if out.BestRestart != 0 || out.BestArm != 0 {
			t.Errorf("workers=%d: winner arm %d restart %d, want 0/0", workers, out.BestArm, out.BestRestart)
		}
	}
}

// TestNonFiniteCostsNameFirstPull: when no cost compares below another
// (all +Inf, or NaN), the winner is still a real pull — the first one —
// so callers can index their per-restart results with BestRestart.
func TestNonFiniteCostsNameFirstPull(t *testing.T) {
	for _, cost := range []float64{math.Inf(1), math.NaN()} {
		run := func(_ context.Context, _, _ int) (float64, anneal.Stats, error) {
			return cost, anneal.Stats{Proposed: 1}, nil
		}
		out, err := Run(context.Background(), Config{Arms: arms(1), Budget: 3}, 2, run)
		if err != nil {
			t.Fatal(err)
		}
		if out.BestRestart != 0 || out.BestArm != 0 {
			t.Errorf("cost %v: winner arm %d restart %d, want 0/0", cost, out.BestArm, out.BestRestart)
		}
	}
}

// TestTraceSchedulingIndependence: the full trace — and its hash — must be
// identical across worker counts and GOMAXPROCS settings.
func TestTraceSchedulingIndependence(t *testing.T) {
	cfg := Config{Arms: arms(5), Budget: 23, Seed: 7}
	ref, err := Run(context.Background(), cfg, 1, synthRun)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got, err := Run(context.Background(), cfg, workers, synthRun)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("workers=%d: outcome diverged from sequential run", workers)
		}
		if ref.TraceHash() != got.TraceHash() {
			t.Errorf("workers=%d: trace hash %#x, want %#x", workers, got.TraceHash(), ref.TraceHash())
		}
	}
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	got, err := Run(context.Background(), cfg, 8, synthRun)
	if err != nil {
		t.Fatal(err)
	}
	if ref.TraceHash() != got.TraceHash() {
		t.Errorf("GOMAXPROCS=1: trace hash %#x, want %#x", got.TraceHash(), ref.TraceHash())
	}
}

// pinnedSynthTraceHash is the FNV-64a trace hash of the synthetic run below.
// It must never change without a deliberate bandit-policy change: the hash
// covers every allocation decision, seed and counter, so any drift in
// rounds, shares, round-robin order or halving shows up here first.
const pinnedSynthTraceHash = 0x6995a8a845f76b44

func TestTraceHashPinned(t *testing.T) {
	out, err := Run(context.Background(), Config{Arms: arms(4), Budget: 16, Seed: 11}, 4, synthRun)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.TraceHash(); got != pinnedSynthTraceHash {
		t.Errorf("trace hash %#x, want %#x", got, pinnedSynthTraceHash)
	}
}

// TestHalvingConcentratesBudget: with one clearly-best arm the final round
// must spend its budget on that arm, and every cut arm must record its
// elimination round.
func TestHalvingConcentratesBudget(t *testing.T) {
	best := func(_ context.Context, arm, restart int) (float64, anneal.Stats, error) {
		cost := 10.0 + float64(arm)
		if arm == 2 {
			cost = 1
		}
		return cost, anneal.Stats{Proposed: 10, Accepted: 1}, nil
	}
	out, err := Run(context.Background(), Config{Arms: arms(4), Budget: 24}, 2, best)
	if err != nil {
		t.Fatal(err)
	}
	if out.BestArm != 2 {
		t.Fatalf("winner arm %d, want 2", out.BestArm)
	}
	if out.Arms[2].EliminatedRound != -1 {
		t.Errorf("winning arm eliminated in round %d", out.Arms[2].EliminatedRound)
	}
	eliminated := 0
	for _, as := range out.Arms {
		if as.EliminatedRound >= 0 {
			eliminated++
		}
	}
	if eliminated != 3 {
		t.Errorf("%d arms eliminated, want 3", eliminated)
	}
	// The final round runs the survivor alone.
	last := out.Trace[len(out.Trace)-1]
	for _, al := range out.Trace {
		if al.Round == last.Round && al.Arm != 2 {
			t.Errorf("final round pulled arm %d", al.Arm)
		}
	}
	if total := len(out.Trace); total != 24 {
		t.Errorf("spent %d pulls, want the full budget 24", total)
	}
}

// TestBudgetSmallerThanRounds: a budget too small to reach every round still
// spends exactly Budget pulls and never allocates to an already-cut arm.
func TestBudgetSmallerThanRounds(t *testing.T) {
	out, err := Run(context.Background(), Config{Arms: arms(5), Budget: 3}, 1, synthRun)
	if err != nil {
		t.Fatal(err)
	}
	if out.Total != 3 {
		t.Fatalf("Total %d, want 3", out.Total)
	}
	for i := 1; i < len(out.Trace); i++ {
		if out.Trace[i].Restart != out.Trace[i-1].Restart+1 {
			t.Errorf("restart indices not consecutive: %+v", out.Trace)
		}
	}
}

// TestRunError: a failing pull aborts the portfolio with that error.
func TestRunError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), Config{Arms: arms(2), Budget: 4},
		2, func(_ context.Context, arm, restart int) (float64, anneal.Stats, error) {
			if restart == 1 {
				return 0, anneal.Stats{}, boom
			}
			return 1, anneal.Stats{}, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestRunInvalidConfig: Run validates before spending any budget.
func TestRunInvalidConfig(t *testing.T) {
	called := false
	_, err := Run(context.Background(), Config{Arms: arms(2), Budget: 0}, 1,
		func(_ context.Context, _, _ int) (float64, anneal.Stats, error) {
			called = true
			return 0, anneal.Stats{}, nil
		})
	if !errors.Is(err, ErrZeroBudget) {
		t.Fatalf("err = %v, want ErrZeroBudget", err)
	}
	if called {
		t.Error("invalid config still ran pulls")
	}
}

func TestValidateErrors(t *testing.T) {
	base := func() Config { return Config{Arms: arms(2), Budget: 4} }
	cases := []struct {
		name   string
		mut    func(*Config)
		sentry error // nil = any non-nil error
	}{
		{"no arms", func(c *Config) { c.Arms = nil }, ErrNoArms},
		{"zero budget", func(c *Config) { c.Budget = 0 }, ErrZeroBudget},
		{"negative budget", func(c *Config) { c.Budget = -3 }, ErrZeroBudget},
		{"budget cap", func(c *Config) { c.Budget = maxBudget + 1 }, nil},
		{"negative explore", func(c *Config) { c.Explore = -0.1 }, nil},
		{"empty name", func(c *Config) { c.Arms[1].Name = "" }, nil},
		{"duplicate name", func(c *Config) { c.Arms[1].Name = c.Arms[0].Name }, ErrDuplicateArm},
		{"unknown engine", func(c *Config) { c.Arms[0].Engine = "sa" }, nil},
		{"negative move scale", func(c *Config) { c.Arms[0].MoveScale = -1 }, nil},
		{"move scale cap", func(c *Config) { c.Arms[0].MoveScale = 65 }, nil},
		{"negative temp", func(c *Config) { c.Arms[0].Schedule.InitialTemp = -1 }, nil},
		{"cooling ≥ 1", func(c *Config) { c.Arms[0].Schedule.Cooling = 1 }, nil},
		{"negative plateau", func(c *Config) { c.Arms[0].Schedule.MovesPerTemp = -1 }, nil},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: validated", tc.name)
			continue
		}
		if tc.sentry != nil && !errors.Is(err, tc.sentry) {
			t.Errorf("%s: err %v does not wrap %v", tc.name, err, tc.sentry)
		}
	}
	good := base()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestParseConfig(t *testing.T) {
	cfg, err := ParseConfig([]byte(`{"arms":[{"name":"a"},{"name":"b","engine":"mcmf","move_scale":0.5}],"budget":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Arms) != 2 || cfg.Arms[1].Engine != EngineMCMF || cfg.Budget != 8 {
		t.Errorf("parsed %+v", cfg)
	}
	for name, data := range map[string]string{
		"unknown field":  `{"arms":[{"name":"a"}],"budget":1,"bogus":2}`,
		"trailing data":  `{"arms":[{"name":"a"}],"budget":1} {}`,
		"syntax":         `{"arms":`,
		"duplicate arms": `{"arms":[{"name":"a"},{"name":"a"}],"budget":1}`,
		"zero budget":    `{"arms":[{"name":"a"}],"budget":0}`,
	} {
		if _, err := ParseConfig([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := ParseConfig([]byte(`{"arms":[{"name":"a"},{"name":"a"}],"budget":1}`)); !errors.Is(err, ErrDuplicateArm) {
		t.Errorf("duplicate arm err = %v", err)
	}
	if _, err := ParseConfig([]byte(`{"arms":[{"name":"a"}],"budget":0}`)); !errors.Is(err, ErrZeroBudget) {
		t.Errorf("zero budget err = %v", err)
	}
}

func TestApplyTo(t *testing.T) {
	base := anneal.Schedule{InitialTemp: 2, FinalTemp: 0.01, Cooling: 0.9, MovesPerTemp: 100, StallPlateaus: 10}
	if got := (Arm{Name: "legacy"}).ApplyTo(base); got != base {
		t.Errorf("all-zero arm changed the schedule: %+v", got)
	}
	got := Arm{Name: "x", Schedule: anneal.Schedule{Cooling: 0.5, MovesPerTemp: 7}}.ApplyTo(base)
	want := base
	want.Cooling, want.MovesPerTemp = 0.5, 7
	if got != want {
		t.Errorf("override merge: got %+v, want %+v", got, want)
	}
	scaled := Arm{Name: "y", MoveScale: 0.5}.ApplyTo(base)
	if scaled.MovesPerTemp != 50 {
		t.Errorf("MoveScale 0.5 over 100 moves: got %d, want 50", scaled.MovesPerTemp)
	}
	tiny := Arm{Name: "z", MoveScale: 0.001}.ApplyTo(base)
	if tiny.MovesPerTemp != 1 {
		t.Errorf("scaled plateau below one move: got %d", tiny.MovesPerTemp)
	}
	// MoveScale on an all-default base resolves the defaults first.
	def := Arm{Name: "d", MoveScale: 2}.ApplyTo(anneal.Schedule{})
	if def.MovesPerTemp != 128 {
		t.Errorf("MoveScale 2 over default 64: got %d", def.MovesPerTemp)
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := Default(8)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Default(8) invalid: %v", err)
	}
	if cfg.Budget != 8 || len(cfg.Arms) < 3 {
		t.Errorf("Default(8) = %+v", cfg)
	}
	hasAuto := false
	for _, a := range cfg.Arms {
		if a.Engine == EngineAuto {
			hasAuto = true
		}
	}
	if !hasAuto {
		t.Error("default arm set has no feature-selected warm-start arm")
	}
}
