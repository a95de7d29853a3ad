// Package exchange implements the paper's finger/pad exchange method
// (Fig 14): after a congestion-driven assignment fixes an initial net
// order, simulated annealing swaps adjacent fingers to improve IR-drop of
// the core (via the compact pad-gap model) and — for stacking ICs — the
// bonding wires (via the ω tier-interleaving metric), while the increased-
// density term ID (Eq 2) keeps the package congestion in check.
//
// The cost function is the paper's Eq 3:
//
//	Cost = λ·Δ_IR + ρ·ID + φ·ω
//
// with Δ_IR the compact IR estimate and ID the worst growth of any
// highest-line section's wire count relative to the initial assignment.
//
// The range constraint of Section 3.2 is enforced structurally: a swap of
// two nets whose balls share a horizontal line would invert their via order
// and destroy monotonic routability, so such proposals are rejected. Every
// other adjacent swap provably preserves legality, which pins each net
// inside exactly the slot range the paper describes (between its same-line
// neighbors).
package exchange

import (
	"context"
	"fmt"
	"math/rand"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
	"copack/internal/obs"
	"copack/internal/portfolio"
	"copack/internal/power"
	"copack/internal/route"
	"copack/internal/stack"
)

// Options configures a Run.
type Options struct {
	// Lambda, Rho and Phi are the Eq 3 weights. Zero values take the
	// defaults (1, 1, 0.4). The Δ_IR and ω terms are normalized by
	// their initial values so the defaults behave consistently across
	// instance sizes.
	Lambda, Rho, Phi float64
	// Schedule drives the annealer; the zero value uses the engine
	// defaults with an instance-scaled move count.
	Schedule anneal.Schedule
	// Seed makes the run deterministic.
	Seed int64
	// Classes are the net classes whose pads the IR term watches;
	// default is Power only, matching the paper's 2-D exchange.
	Classes []netlist.NetClass
	// DisableRangeConstraint removes the same-line rejection (an
	// ablation: the resulting order usually loses monotonic
	// routability, which Result.Legal reports).
	DisableRangeConstraint bool
	// TopLineOnly restores the paper's literal Eq 2, which watches only
	// the highest line's sections; the default watches every line (see
	// sectionData).
	TopLineOnly bool
	// Bond is the bonding-wire geometry used for reporting; zero value
	// takes stack.DefaultBondSpec.
	Bond stack.BondSpec
	// Restarts runs this many independently seeded anneals (restart k
	// gets seed Seed+k, per anneal.SplitSeed) and keeps the one whose
	// final order scores the lowest Eq 3 cost, breaking ties toward the
	// lower restart index. 0 or 1 means a single anneal — the paper's
	// method exactly. The restarts run as a one-arm portfolio (a cold arm
	// with no overrides and Budget = Restarts, so at most the portfolio's
	// 4096 cap). The outcome is a pure function of (problem, initial,
	// Options): it does not depend on Workers. Ignored when Portfolio is
	// set.
	Restarts int
	// Workers bounds how many restarts anneal concurrently (0 means one
	// per available CPU). It only changes the wall clock, never the
	// result; Workers=1 runs the restarts sequentially on the calling
	// goroutine.
	Workers int
	// Recorder receives the run's telemetry: per-restart move and anneal
	// counters, tracker resync counts and the Eq 3 term breakdown (see
	// observe.go for the key schema). Nil disables recording. Recording
	// is strictly post-anneal and never touches the rng stream, so a
	// recorded run is bit-identical to an unrecorded one (enforced by the
	// golden tests).
	Recorder obs.Recorder
	// Portfolio, when non-nil, declares the arms the restarts run on (see
	// internal/portfolio): Portfolio.Budget restarts are allocated across
	// them by a deterministic successive-halving bandit, reported in
	// Result.Portfolio. An arm's engine is the only warm start: a restart
	// of an {Engine: "mcmf"} arm anneals from the MCMF order while every
	// Eq 3 baseline — the Eq 2 section counts, the Δ_IR and ω normalizers,
	// the Before metrics — stays anchored to the initial argument, so its
	// cost is comparable with a cold run's (see Score). A single arm with
	// no overrides is exactly Restarts = Budget, which is how a nil
	// Portfolio runs. Portfolio.Seed is overwritten with Options.Seed so
	// one seed drives the whole run.
	Portfolio *portfolio.Config
}

// Metrics captures the quality of an assignment before/after exchanging.
type Metrics struct {
	// Proxy is the compact Δ_IR estimate (lower = better spread pads).
	Proxy float64
	// ID is Eq 2's increased density versus the initial assignment (the
	// initial assignment itself scores 0).
	ID int
	// Omega is the tier-interleaving metric (0 for 2-D ICs).
	Omega int
	// MaxDensity and Wirelength are the full routing evaluation.
	MaxDensity int
	Wirelength float64
	// BondLength is the physical bonding-wire length model.
	BondLength float64
}

// Result is the outcome of an exchange run.
type Result struct {
	// Assignment is the final order (a distinct copy; the initial
	// assignment is not modified).
	Assignment *core.Assignment
	// Before and After are the metrics of the initial and final orders.
	Before, After Metrics
	// Stats reports the annealer's activity.
	Stats anneal.Stats
	// Legal reports whether the final order is monotonic-routable; it
	// can only be false when DisableRangeConstraint is set.
	Legal bool
	// Interrupted reports that the anneal was cut short (context
	// cancellation or an injected fault; see Stats.Stopped for the
	// reason). Assignment then holds the annealed-so-far order — or the
	// restart's start order, when the cut caught the anneal in a state
	// Eq 3 scores worse than the start — so a partial answer is always
	// legal under the range constraint and never loses ground.
	Interrupted bool
	// Restart is the index of the winning restart (0 for single-start
	// runs); Stats describes that restart's anneal.
	Restart int
	// RestartCosts lists every restart's final Eq 3 cost (recomputed
	// from scratch, so incremental-cache drift cannot skew the
	// selection), indexed by restart. Length Options.Restarts (min 1),
	// or Portfolio.Budget for portfolio runs.
	RestartCosts []float64
	// Portfolio is the bandit's outcome — the full arm-allocation trace
	// and per-arm summaries — for runs with Options.Portfolio set; nil
	// otherwise.
	Portfolio *portfolio.Outcome
}

// state is the annealing target.
type state struct {
	p   *core.Problem
	a   *core.Assignment
	opt Options

	sections [bga.NumSides]sectionData
	// idCache[side] is sections[side].id(...) for the current order,
	// maintained from the O(1) section deltas (see sections.go) so cost
	// stays O(1) per move.
	idCache [bga.NumSides]int
	// sides with at least 2 slots, for stacking-IC move sampling.
	sides []bga.Side

	proxy0, omega0   float64
	lambda, rho, phi float64

	// trk maintains the proxy and ω incrementally (see incremental.go).
	trk *tracker
	// cur is cost() of the current order, refreshed by newState and
	// CommitMove, so pricing a move does not recompute the before-cost.
	cur float64

	// pend is the move priced by the last PriceMove call (pricing.go),
	// awaiting CommitMove or RejectMove.
	pend pendMove
}

// Note: state deliberately does NOT implement anneal.Snapshotter. The
// initial assignment scores ID = 0 by definition, so the minimum of Eq 3
// is usually the starting point itself; the paper's method (and ours)
// returns the *final* annealed state, which trades a little ID for the
// proxy and ω gains the cooling schedule locked in.

func (s *state) cost() float64 {
	idWorst := 0
	for _, v := range s.idCache {
		if v > idWorst {
			idWorst = v
		}
	}
	c := s.lambda*s.trk.proxy/s.proxy0 + s.rho*float64(idWorst)
	if s.p.Tiers > 1 {
		c += s.phi * float64(s.trk.omega) / s.omega0
	}
	return c
}

// pickSlot samples the pad to move. For 2-D ICs only supply pads move: the
// paper's Fig 14 "randomly chooses one power pad", which is one uniform
// draw over the tracker's supply list, mapped back to (side, slot). A pad
// on a side with fewer than 2 slots has no neighbor, so drawing one is an
// infeasible proposal. For stacking ICs any pad moves: a uniform side with
// at least 2 slots, then a uniform slot on it.
func (s *state) pickSlot(rng *rand.Rand) (bga.Side, int, bool) {
	if s.p.Tiers == 1 {
		sup := s.trk.supplyIdx
		if len(sup) == 0 {
			return 0, 0, false
		}
		side, i := s.trk.locate(sup[rng.Intn(len(sup))])
		return side, i, len(s.a.Slots[side]) >= 2
	}
	if len(s.sides) == 0 {
		return 0, 0, false
	}
	side := s.sides[rng.Intn(len(s.sides))]
	return side, 1 + rng.Intn(len(s.a.Slots[side])), true
}

// withDefaults resolves the zero-value option defaults for a problem.
func (opt Options) withDefaults(p *core.Problem) Options {
	if opt.Lambda == 0 {
		opt.Lambda = 1
	}
	if opt.Rho == 0 {
		// Stacking exchanges move every pad, not just supply pads, so
		// the density needs a firmer hand to stay in the paper's
		// +2..3 band.
		opt.Rho = 1.0
		if p.Tiers > 1 {
			opt.Rho = 2.5
		}
	}
	if opt.Phi == 0 {
		opt.Phi = 0.4
	}
	if (opt.Bond == stack.BondSpec{}) {
		opt.Bond = stack.DefaultBondSpec(p)
	}
	if opt.Schedule.MovesPerTemp == 0 {
		// Scale the plateau length with the ring size so larger
		// circuits search proportionally.
		opt.Schedule.MovesPerTemp = 4 * p.Circuit.NumNets()
	}
	if opt.Schedule.StallPlateaus == 0 {
		opt.Schedule.StallPlateaus = 25
	}
	return opt
}

// Run executes the finger/pad exchange on a copy of the initial assignment.
func Run(p *core.Problem, initial *core.Assignment, opt Options) (*Result, error) {
	return RunContext(context.Background(), p, initial, opt)
}

// RunContext is Run with cancellation: when ctx expires mid-anneal the
// exchange stops, evaluates whatever order the annealer had reached and
// returns it as a normal Result with Interrupted set — never an error. An
// uncancelled run is identical to Run for the same seed.
//
// Every run has one restart loop: the bandit in internal/portfolio. Plain
// Restarts run as a one-arm portfolio, whose single round gives pull k
// restart index k, so all budget lands on the arm in index order. Each
// pull builds its own state, anneals it with a fresh rng seeded
// anneal.SplitSeed(Seed, k), and is scored from scratch; the winner is
// the lowest cost, ties to the lower restart index.
func RunContext(ctx context.Context, p *core.Problem, initial *core.Assignment, opt Options) (*Result, error) {
	if err := core.CheckMonotonic(p, initial); err != nil {
		return nil, fmt.Errorf("exchange: initial assignment: %v", err)
	}
	opt = opt.withDefaults(p)
	cfg := portfolio.Config{Budget: max(opt.Restarts, 1), Arms: []portfolio.Arm{{Name: "fixed"}}}
	if opt.Portfolio != nil {
		cfg = *opt.Portfolio
	}
	cfg.Seed = opt.Seed // one seed drives the whole run
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Resolve each arm's start order and schedule up front, so a bad arm
	// fails the run before any budget is spent. An engine's order is a
	// pure function of the problem, so arms sharing an engine share it.
	starts := make([]*core.Assignment, len(cfg.Arms)) // nil: the initial argument
	scheds := make([]anneal.Schedule, len(cfg.Arms))
	warm := map[portfolio.Engine]*core.Assignment{portfolio.EngineCold: nil}
	for i, arm := range cfg.Arms {
		e := arm.Engine
		if e == portfolio.EngineAuto {
			e = portfolio.Compute(p).SelectEngine()
		}
		w, ok := warm[e]
		if !ok {
			var err error
			if w, err = warmStart(p, e); err != nil {
				return nil, err
			}
			warm[e] = w
		}
		starts[i] = w
		scheds[i] = arm.ApplyTo(opt.Schedule).WithDefaults()
		if err := scheds[i].Validate(); err != nil {
			return nil, fmt.Errorf("exchange: arm %q: %v", arm.Name, err)
		}
	}

	before, err := measure(p, initial, opt)
	if err != nil {
		return nil, err
	}

	// Each pull lands at its global restart index, so the reduction
	// below is scheduling-independent.
	runs := make([]restart, cfg.Budget)
	outcome, err := portfolio.Run(ctx, cfg, opt.Workers, func(ctx context.Context, arm, k int) (float64, anneal.Stats, error) {
		start := starts[arm]
		st := newState(p, initial, opt, start)
		cost0 := st.cost()
		rng := rand.New(rand.NewSource(anneal.SplitSeed(cfg.Seed, k)))
		s, err := anneal.MinimizeContext(ctx, st, cost0, scheds[arm], rng)
		if err != nil {
			return 0, s, err
		}
		st.trk.resyncProxy() // clear bounded drift before scoring
		if s.Interrupted && st.cost() > cost0 {
			// The cut caught this anneal in a state Eq 3 scores worse
			// than its start. The start order is the better answer — an
			// interrupted exchange must never lose ground.
			if start == nil {
				start = initial
			}
			st.a = start.Clone()
		}
		runs[k] = restart{st: st, arm: arm, stats: s, terms: eq3Terms(p, st, opt)}
		return runs[k].terms.Total, s, nil
	})
	if err != nil {
		return nil, err
	}

	costs := make([]float64, outcome.Total)
	for k := range costs {
		costs[k] = runs[k].terms.Total
	}
	res, err := finishResult(p, opt, runs[outcome.BestRestart], before, outcome.BestRestart, costs)
	if err != nil {
		return nil, err
	}
	if opt.Portfolio != nil {
		res.Portfolio = outcome
	}
	recordRun(opt, scheds, runs, res)
	return res, nil
}

// restart is one pull of a run: its annealed state, the arm that ran it,
// the annealer's stats and the from-scratch Eq 3 terms of its final order.
type restart struct {
	st    *state
	arm   int
	stats anneal.Stats
	terms eq3Breakdown
}

// warmStart builds the start order of a warm-start engine and checks that
// it is monotonic-legal.
func warmStart(p *core.Problem, e portfolio.Engine) (*core.Assignment, error) {
	var (
		w   *core.Assignment
		err error
	)
	switch e {
	case portfolio.EngineIFA:
		w, err = assign.IFA(p)
	case portfolio.EngineDFA:
		w, err = assign.DFA(p, assign.DFAOptions{})
	case portfolio.EngineMCMF:
		w, err = assign.MCMF(p, assign.MCMFOptions{})
	}
	if err == nil {
		err = core.CheckMonotonic(p, w)
	}
	if err != nil {
		return nil, fmt.Errorf("exchange: warm start %q: %v", e, err)
	}
	return w, nil
}

// finishResult evaluates the winning restart's final order and assembles the
// Result.
func finishResult(p *core.Problem, opt Options, r restart, before Metrics, win int, costs []float64) (*Result, error) {
	st := r.st
	legal := core.CheckMonotonic(p, st.a) == nil
	after := Metrics{
		Proxy:      power.ProxyForAssignment(p, st.a, opt.Classes...),
		Omega:      stack.OmegaAssignment(p, st.a),
		BondLength: stack.TotalBondLength(p, st.a, opt.Bond),
	}
	for _, side := range bga.Sides() {
		if v := st.sections[side].id(st.a.Slots[side]); v > after.ID {
			after.ID = v
		}
	}
	if legal {
		rs, err := route.Evaluate(p, st.a)
		if err != nil {
			return nil, err
		}
		after.MaxDensity = rs.MaxDensity
		after.Wirelength = rs.Wirelength
	}
	return &Result{
		Assignment:   st.a,
		Before:       before,
		After:        after,
		Stats:        r.stats,
		Legal:        legal,
		Interrupted:  r.stats.Interrupted,
		Restart:      win,
		RestartCosts: costs,
	}, nil
}

// newState builds one annealing state over a private clone of its start
// order — the initial assignment, or a warm start (start non-nil), whose
// Eq 3 cost stays measured against the initial argument's baselines. Each
// restart gets its own state: states mutate freely during the anneal and
// must not share anything.
func newState(p *core.Problem, initial *core.Assignment, opt Options, start *core.Assignment) *state {
	warm := start != nil
	if !warm {
		start = initial
	}
	st := &state{p: p, a: start.Clone(), opt: opt,
		lambda: opt.Lambda, rho: opt.Rho, phi: opt.Phi}
	for _, side := range bga.Sides() {
		// The section baseline always comes from the initial argument;
		// for a warm start the live caches are then repointed at the
		// start order, so ID keeps measuring growth versus initial.
		st.sections[side] = newSectionData(p, side, initial.Slots[side], opt.TopLineOnly)
		if warm {
			st.sections[side].reanchor(st.a.Slots[side])
			st.idCache[side] = st.sections[side].worst()
		} else {
			st.idCache[side] = 0 // the initial assignment scores 0 by definition
		}
		if len(st.a.Slots[side]) >= 2 {
			st.sides = append(st.sides, side)
		}
	}
	// The IR term's classes; Power alone when none are set.
	watched := map[netlist.NetClass]bool{netlist.Power: len(opt.Classes) == 0}
	for _, c := range opt.Classes {
		watched[c] = true
	}
	st.trk = newTracker(p, st.a, watched)
	st.proxy0 = power.ProxyForAssignment(p, initial, opt.Classes...)
	if st.proxy0 <= 0 {
		st.proxy0 = 1
	}
	st.omega0 = float64(stack.OmegaAssignment(p, initial))
	if st.omega0 <= 0 {
		st.omega0 = 1
	}
	st.cur = st.cost()
	return st
}

// eq3Breakdown is Eq 3 split into its three weighted terms: Total is
// always IR + ID (+ Omega for stacking), computed with the exact
// floating-point operation order the pre-breakdown selectionCost used, so
// the selection stays bit-identical.
type eq3Breakdown struct {
	IR, ID, Omega float64
	Total         float64
}

// eq3Terms recomputes Eq 3 for a state's current order from scratch.
// Restart selection goes through this, never through the incremental
// caches, so bounded floating-point drift can not flip a winner.
func eq3Terms(p *core.Problem, st *state, opt Options) eq3Breakdown {
	idWorst := 0
	for _, side := range bga.Sides() {
		if v := st.sections[side].id(st.a.Slots[side]); v > idWorst {
			idWorst = v
		}
	}
	var b eq3Breakdown
	b.IR = st.lambda * power.ProxyForAssignment(p, st.a, opt.Classes...) / st.proxy0
	b.ID = st.rho * float64(idWorst)
	b.Total = b.IR + b.ID
	if p.Tiers > 1 {
		b.Omega = st.phi * float64(stack.OmegaAssignment(p, st.a)) / st.omega0
		b.Total += b.Omega
	}
	return b
}

// selectionCost is eq3Terms' total (kept for the drift tests).
func selectionCost(p *core.Problem, st *state, opt Options) float64 {
	return eq3Terms(p, st, opt).Total
}

// Score recomputes the Eq 3 cost of order a in the frame anchored at
// baseline — the quantity RunContext reports in RestartCosts when baseline
// is that run's initial argument. Two runs that share a baseline (for
// example a cold DFA-seeded run and an MCMF-warm-started run whose Options
// passed the same initial) therefore get directly comparable scores, which
// Eq 3's initial-relative ID term and Δ_IR/ω normalizers otherwise forbid.
// Both orders must be monotonic-legal for the problem.
func Score(p *core.Problem, baseline, a *core.Assignment, opt Options) (float64, error) {
	if err := core.CheckMonotonic(p, baseline); err != nil {
		return 0, fmt.Errorf("exchange: score baseline: %v", err)
	}
	if err := core.CheckMonotonic(p, a); err != nil {
		return 0, fmt.Errorf("exchange: score order: %v", err)
	}
	opt = opt.withDefaults(p)
	st := newState(p, baseline, opt, a)
	return eq3Terms(p, st, opt).Total, nil
}

// measure evaluates the initial order's Metrics. Its Eq 2 ID is 0 by
// definition: the initial order is the growth baseline.
func measure(p *core.Problem, a *core.Assignment, opt Options) (Metrics, error) {
	rs, err := route.Evaluate(p, a)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Proxy:      power.ProxyForAssignment(p, a, opt.Classes...),
		Omega:      stack.OmegaAssignment(p, a),
		MaxDensity: rs.MaxDensity,
		Wirelength: rs.Wirelength,
		BondLength: stack.TotalBondLength(p, a, opt.Bond),
	}, nil
}
