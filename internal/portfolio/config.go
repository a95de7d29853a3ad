package portfolio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"copack/internal/anneal"
)

// Engine names the warm-start engine an arm anneals from. EngineCold keeps
// the run's initial assignment (the paper's method); the others seed the
// anneal from the named congestion-driven engine, with every Eq 3 baseline
// still anchored to the initial argument (see exchange.Score), so costs
// stay comparable across arms. Engine arms are the exchange's only warm
// start. EngineAuto resolves per instance from Features.SelectEngine.
type Engine string

// Warm-start engines.
const (
	EngineCold Engine = ""
	EngineIFA  Engine = "ifa"
	EngineDFA  Engine = "dfa"
	EngineMCMF Engine = "mcmf"
	EngineAuto Engine = "auto"
)

// valid reports whether e is one of the declared engines.
func (e Engine) valid() bool {
	switch e {
	case EngineCold, EngineIFA, EngineDFA, EngineMCMF, EngineAuto:
		return true
	}
	return false
}

// Arm declares one portfolio member: a schedule variant (zero fields
// inherit the run's base schedule), a move-range knob and a warm-start
// engine.
type Arm struct {
	// Name identifies the arm in traces and telemetry; required, unique.
	Name string `json:"name"`
	// Engine is the warm-start engine ("" = cold).
	Engine Engine `json:"engine,omitempty"`
	// MoveScale multiplies the base schedule's MovesPerTemp (the plateau
	// length — the annealer's move-range knob). 0 means 1.0; the scaled
	// plateau never drops below one move.
	MoveScale float64 `json:"move_scale,omitempty"`
	// Schedule overrides: every non-zero field replaces the base
	// schedule's value; zero fields inherit.
	Schedule anneal.Schedule `json:"schedule,omitempty"`
}

// Config declares a portfolio: the arm set, the total restart budget and
// the exploration coefficient.
type Config struct {
	// Arms is the declared arm set; at least one, names unique.
	Arms []Arm `json:"arms"`
	// Budget is the total number of restarts to allocate (≥ 1).
	Budget int `json:"budget"`
	// Explore is the UCB exploration coefficient; 0 means DefaultExplore.
	Explore float64 `json:"explore,omitempty"`
	// Seed is the base seed pulls split from (pull k uses
	// anneal.SplitSeed(Seed, k)). The exchange layer overwrites it with
	// its own Options.Seed so one seed drives the whole run.
	Seed int64 `json:"seed,omitempty"`
}

// maxBudget bounds Budget so a hostile config (the fuzz surface) cannot
// make callers allocate per-restart state without limit. 4096 restarts is
// far beyond any useful portfolio.
const maxBudget = 4096

// Typed validation errors. ErrZeroBudget and ErrDuplicateArm are the
// contract of the fuzz target: any decodable config that fails validation
// for those reasons reports them via errors.Is.
var (
	// ErrNoArms rejects a config with an empty arm set.
	ErrNoArms = errors.New("portfolio: config declares no arms")
	// ErrZeroBudget rejects a non-positive restart budget.
	ErrZeroBudget = errors.New("portfolio: restart budget must be positive")
	// ErrDuplicateArm rejects two arms sharing a name.
	ErrDuplicateArm = errors.New("portfolio: duplicate arm")
)

// Validate checks the config: at least one arm, unique non-empty names, a
// positive bounded budget, known engines and sane knob ranges.
func (c *Config) Validate() error {
	if len(c.Arms) == 0 {
		return ErrNoArms
	}
	if c.Budget <= 0 {
		return fmt.Errorf("%w (got %d)", ErrZeroBudget, c.Budget)
	}
	if c.Budget > maxBudget {
		return fmt.Errorf("portfolio: budget %d above the %d cap", c.Budget, maxBudget)
	}
	if c.Explore < 0 {
		return fmt.Errorf("portfolio: negative explore coefficient %g", c.Explore)
	}
	seen := make(map[string]bool, len(c.Arms))
	for i, arm := range c.Arms {
		if arm.Name == "" {
			return fmt.Errorf("portfolio: arm %d has no name", i)
		}
		if seen[arm.Name] {
			return fmt.Errorf("%w %q", ErrDuplicateArm, arm.Name)
		}
		seen[arm.Name] = true
		if !arm.Engine.valid() {
			return fmt.Errorf("portfolio: arm %q: unknown engine %q (want ifa, dfa, mcmf, auto or empty)", arm.Name, arm.Engine)
		}
		if arm.MoveScale < 0 {
			return fmt.Errorf("portfolio: arm %q: negative move scale %g", arm.Name, arm.MoveScale)
		}
		if arm.MoveScale > 64 {
			return fmt.Errorf("portfolio: arm %q: move scale %g above the 64 cap", arm.Name, arm.MoveScale)
		}
		s := arm.Schedule
		if s.InitialTemp < 0 || s.FinalTemp < 0 {
			return fmt.Errorf("portfolio: arm %q: negative temperature", arm.Name)
		}
		if s.Cooling < 0 || s.Cooling >= 1 {
			return fmt.Errorf("portfolio: arm %q: cooling %g outside [0,1)", arm.Name, s.Cooling)
		}
		if s.MovesPerTemp < 0 || s.StallPlateaus < 0 {
			return fmt.Errorf("portfolio: arm %q: negative schedule count", arm.Name)
		}
	}
	return nil
}

// ApplyTo merges an arm's overrides onto a base schedule: non-zero arm
// fields replace the base values, then MoveScale rescales the plateau
// length (never below one move). An all-zero arm returns base unchanged,
// which is how the exchange runs plain Options.Restarts as one arm.
func (a Arm) ApplyTo(base anneal.Schedule) anneal.Schedule {
	s := base
	if a.Schedule.InitialTemp != 0 {
		s.InitialTemp = a.Schedule.InitialTemp
	}
	if a.Schedule.FinalTemp != 0 {
		s.FinalTemp = a.Schedule.FinalTemp
	}
	if a.Schedule.Cooling != 0 {
		s.Cooling = a.Schedule.Cooling
	}
	if a.Schedule.MovesPerTemp != 0 {
		s.MovesPerTemp = a.Schedule.MovesPerTemp
	}
	if a.Schedule.StallPlateaus != 0 {
		s.StallPlateaus = a.Schedule.StallPlateaus
	}
	if a.MoveScale > 0 {
		s = s.WithDefaults()
		s.MovesPerTemp = int(float64(s.MovesPerTemp) * a.MoveScale)
		if s.MovesPerTemp < 1 {
			s.MovesPerTemp = 1
		}
	}
	return s
}

// ParseConfig decodes a JSON portfolio config and validates it. Unknown
// fields and trailing garbage are rejected, so a config that parses is
// exactly one Validate accepts — the contract FuzzPortfolioConfig
// enforces.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("portfolio: parse config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("portfolio: parse config: trailing data after the config object")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &cfg, nil
}

// Default is the standard arm set for a given restart budget: the legacy
// schedule as the control arm, faster and slower cooling variants, a
// half-plateau move-range variant, and a feature-selected warm start
// annealing a short tail of the cooling ramp (a warm start lands near the
// basin already, so most of its budget belongs at low temperature). The
// bandit prunes whichever of these the instance doesn't reward.
func Default(budget int) *Config {
	return &Config{
		Budget: budget,
		Arms: []Arm{
			{Name: "legacy"},
			{Name: "fast-cool", Schedule: anneal.Schedule{Cooling: 0.85}},
			{Name: "slow-cool", Schedule: anneal.Schedule{Cooling: 0.96}},
			{Name: "half-moves", MoveScale: 0.5},
			{Name: "warm-auto", Engine: EngineAuto, MoveScale: 0.5,
				Schedule: anneal.Schedule{InitialTemp: 0.05}},
		},
	}
}
