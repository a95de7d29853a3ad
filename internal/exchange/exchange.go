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
	// Initial, when non-nil, supplies a warm-start order per restart:
	// restart k anneals from Initial(k) instead of the run's initial
	// argument (a nil return falls back to the initial argument, so a
	// single hook can warm-start some restarts and not others). Every
	// Eq 3 baseline — the Eq 2 section counts, the Δ_IR and ω
	// normalizers, the Before metrics and the interrupted-run fallback —
	// stays anchored to the initial argument, so restart costs remain
	// mutually comparable and comparable with a cold run from the same
	// initial (see Score). Returned orders must be monotonic-legal for
	// the problem; Run validates them. A nil Initial is the cold path,
	// bit-identical to the behavior before the hook existed.
	Initial func(restart int) *core.Assignment
	// Restarts runs this many independently seeded anneals (restart k
	// gets seed Seed+k, per anneal.SplitSeed) and keeps the one whose
	// final order scores the lowest Eq 3 cost, breaking ties toward the
	// lower restart index. 0 or 1 means a single anneal — the paper's
	// method exactly. The outcome is a pure function of (problem,
	// initial, Options): it does not depend on Workers.
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
	// Portfolio, when non-nil, replaces the fixed-budget restart loop
	// with the adaptive annealing portfolio (see internal/portfolio and
	// portfolio.go in this package): Portfolio.Budget restarts are
	// allocated across the declared arms by a deterministic
	// successive-halving bandit, Restarts is ignored, and Initial must be
	// nil (arms own their warm starts). A nil Portfolio is the legacy
	// path, bit-identical to the behavior before the field existed; a
	// single-arm portfolio with no overrides is bit-identical to
	// Restarts=Budget (both enforced by the golden matrix and the
	// equivalence tests). Portfolio.Seed is overwritten with Options.Seed
	// so one seed drives the whole run.
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
	// initial order, when the cut caught the anneal in a state Eq 3
	// scores worse than the start — so a partial answer is always legal
	// under the range constraint and never loses ground.
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
func RunContext(ctx context.Context, p *core.Problem, initial *core.Assignment, opt Options) (*Result, error) {
	if err := core.CheckMonotonic(p, initial); err != nil {
		return nil, fmt.Errorf("exchange: initial assignment: %v", err)
	}
	opt = opt.withDefaults(p)
	if opt.Portfolio != nil {
		return runPortfolio(ctx, p, initial, opt)
	}
	sched := opt.Schedule

	restarts := opt.Restarts
	if restarts < 1 {
		restarts = 1
	}
	// Build one independent annealing state per restart. The builds are
	// cheap next to the anneals, and doing them up front (in restart
	// order) keeps the whole run a pure function of the options.
	states := make([]*state, restarts)
	starts := make([]*core.Assignment, restarts) // warm starts; nil = the initial argument
	startCosts := make([]float64, restarts)
	for k := range states {
		if opt.Initial != nil {
			if w := opt.Initial(k); w != nil {
				if err := core.CheckMonotonic(p, w); err != nil {
					return nil, fmt.Errorf("exchange: warm start for restart %d: %v", k, err)
				}
				starts[k] = w
			}
		}
		states[k] = newState(p, initial, opt, starts[k])
		// The per-restart floor for the interrupted-run fallback: an
		// interrupted anneal must never report worse than its start.
		startCosts[k] = states[k].cost()
	}

	before, err := measure(p, initial, states[0], opt)
	if err != nil {
		return nil, err
	}

	stats, err := anneal.MinimizeRestarts(ctx, restarts, opt.Workers, func(k int) (anneal.Target, float64) {
		return states[k], states[k].cost()
	}, sched, opt.Seed)
	if err != nil {
		return nil, err
	}

	// Score every restart's final order from scratch (immune to the
	// incremental caches' floating-point drift) and keep the best; ties
	// go to the lower restart index so the choice is deterministic.
	costs := make([]float64, restarts)
	terms := make([]eq3Breakdown, restarts)
	win := 0
	for k, st := range states {
		st.trk.resyncProxy() // clear bounded drift before comparing costs
		if stats[k].Interrupted && st.cost() > startCosts[k] {
			// The cut caught this anneal mid-high-temperature, in a
			// state Eq 3 scores worse than its start. The start order
			// (warm start, or the initial argument) is the better
			// answer — an interrupted exchange must never lose ground.
			if starts[k] != nil {
				st.a = starts[k].Clone()
			} else {
				st.a = initial.Clone()
			}
		}
		terms[k] = eq3Terms(p, st, opt)
		costs[k] = terms[k].Total
		if costs[k] < costs[win] {
			win = k
		}
	}
	res, err := finishResult(p, opt, states[win], before, stats[win], win, costs)
	if err != nil {
		return nil, err
	}
	recordRun(opt, sched, states, stats, terms, res)
	return res, nil
}

// finishResult evaluates the winning restart's final order and assembles the
// Result — the tail shared by the fixed-budget path and the portfolio path
// (portfolio.go), kept common so both report identically-derived metrics.
func finishResult(p *core.Problem, opt Options, st *state, before Metrics, winStats anneal.Stats, win int, costs []float64) (*Result, error) {
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
		Stats:        winStats,
		Legal:        legal,
		Interrupted:  winStats.Interrupted,
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

func measure(p *core.Problem, a *core.Assignment, st *state, opt Options) (Metrics, error) {
	rs, err := route.Evaluate(p, a)
	if err != nil {
		return Metrics{}, err
	}
	m := Metrics{
		Proxy:      power.ProxyForAssignment(p, a, opt.Classes...),
		Omega:      stack.OmegaAssignment(p, a),
		MaxDensity: rs.MaxDensity,
		Wirelength: rs.Wirelength,
		BondLength: stack.TotalBondLength(p, a, opt.Bond),
	}
	for _, side := range bga.Sides() {
		if v := st.sections[side].id(a.Slots[side]); v > m.ID {
			m.ID = v
		}
	}
	return m, nil
}
