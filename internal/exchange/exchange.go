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

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
	"copack/internal/obs"
	"copack/internal/parallel"
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
	// DisableRangeConstraint removes the same-line rejection (an
	// ablation: the resulting order usually loses monotonic
	// routability, which Result.Legal reports).
	DisableRangeConstraint bool
	// TopLineOnly restores the paper's literal Eq 2, which watches only
	// the highest line's sections; the default watches every line (see
	// sectionData).
	TopLineOnly bool
	// Restarts runs this many independently seeded anneals (restart k
	// gets seed Seed+k, per anneal.SplitSeed) and keeps the one whose
	// final order scores the lowest Eq 3 cost, breaking ties toward the
	// lower restart index; above 4096 the run fails. 0 or 1 means a
	// single anneal — the paper's method exactly. A single anneal, and
	// every restart at ψ = 1, starts cold from the initial order on
	// Schedule. Several restarts at ψ ≥ 2 all start warm from the
	// congestion-driven order the instance suits (see warmStart), on
	// Schedule entered at temperature 0.05 (or at its FinalTemp, when
	// that is higher) with half its plateau length.
	// Every Eq 3 baseline — the Eq 2 section counts, the Δ_IR and ω
	// normalizers, the Before metrics — stays anchored to the initial
	// argument, so warm and cold costs compare directly. A restart cut
	// short returns whichever of the order it reached, its start order
	// and the initial order Eq 3 scores lowest, ties in that order, so a
	// cut run never returns an order Eq 3 scores above the initial one.
	// The outcome is a pure function of (problem, initial, Options): it
	// does not depend on Workers.
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
	// reason). Assignment then holds the lowest-Eq 3 of the annealed-so-
	// far order, the restart's start order and the initial order (see
	// Options.Restarts), so a partial answer is always legal under the
	// range constraint and Eq 3 never scores it above the initial order.
	Interrupted bool
	// Restart is the index of the winning restart (0 for single-start
	// runs); Stats describes that restart's anneal.
	Restart int
	// RestartCosts lists every restart's final Eq 3 cost (recomputed
	// from scratch, so incremental-cache drift cannot skew the
	// selection), indexed by restart. Length Options.Restarts (min 1).
	RestartCosts []float64
}

// state is the annealing target.
type state struct {
	p   *core.Problem
	a   *core.Assignment
	opt Options

	sections [bga.NumSides]sectionData
	// rows[side][i] is the ball line of the net at 0-based slot i, so the
	// range check and the Eq 2 pricing read a slot's line without going
	// through its net ID.
	rows [bga.NumSides][]int32
	// idCache[side] is sections[side].id(...) for the current order,
	// maintained from the O(1) section deltas (see sections.go) so cost
	// stays O(1) per move. idOther[side] is the largest idCache entry of
	// the other three sides (0 at least), so pricing a move on one side
	// finds the worst Eq 2 ID without a loop.
	idCache, idOther [bga.NumSides]int
	// sides with at least 2 slots, for stacking-IC move sampling.
	sides []bga.Side
	// The move samplers, fixed per state (see pickSlot): drawPad over the
	// supply list (ψ = 1), drawSide over sides and drawSlot over each
	// side's slots (ψ ≥ 2).
	drawPad, drawSide fixedIntn
	drawSlot          [bga.NumSides]fixedIntn

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
// is the starting point itself (TestBestSeenIsTheStart); the paper's
// method (and ours) returns the *final* annealed state, which trades a
// little ID for the proxy and ω gains the cooling schedule locked in.

// setIDOther recomputes idOther from idCache.
func (s *state) setIDOther() {
	for side := range s.idOther {
		worst := 0
		for k, v := range s.idCache {
			if k != side && v > worst {
				worst = v
			}
		}
		s.idOther[side] = worst
	}
}

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
// at least 2 slots, then a uniform slot on it. Every draw goes through one
// of the state's fixed-n samplers, which draw what rng.Intn would.
func (s *state) pickSlot(rng *anneal.Rand) (bga.Side, int, bool) {
	if s.p.Tiers == 1 {
		sup := s.trk.supplyIdx
		if len(sup) == 0 {
			return 0, 0, false
		}
		side, i := s.trk.locate(sup[s.drawPad.draw(rng)])
		return side, i, len(s.a.Slots[side]) >= 2
	}
	if len(s.sides) == 0 {
		return 0, 0, false
	}
	side := s.sides[s.drawSide.draw(rng)]
	return side, 1 + s.drawSlot[side].draw(rng), true
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

// maxRestarts bounds Options.Restarts, so a hostile caller cannot make a
// run allocate per-restart state without limit. 4096 restarts is far
// beyond any useful count.
const maxRestarts = 4096

// RunContext is Run with cancellation: when ctx expires mid-anneal the
// exchange stops, evaluates whatever order the annealer had reached and
// returns it as a normal Result with Interrupted set — never an error. An
// uncancelled run is identical to Run for the same seed.
//
// Every run has one restart loop. Restart k builds its own state from the
// start order Options.Restarts describes, anneals it with a fresh rng
// seeded anneal.SplitSeed(Seed, k), and is scored from scratch; the winner
// is the lowest cost, ties to the lower restart index.
func RunContext(ctx context.Context, p *core.Problem, initial *core.Assignment, opt Options) (*Result, error) {
	if err := core.CheckMonotonic(p, initial); err != nil {
		return nil, fmt.Errorf("exchange: initial assignment: %v", err)
	}
	if opt.Restarts > maxRestarts {
		return nil, fmt.Errorf("exchange: %d restarts above the %d cap", opt.Restarts, maxRestarts)
	}
	opt = opt.withDefaults(p)
	n := max(opt.Restarts, 1)

	// The start order and schedule are resolved up front, so a bad
	// schedule fails the run before any anneal. warm stays nil for a
	// cold run, whose restarts start from the initial argument.
	var warm *core.Assignment
	start, sched := initial, opt.Schedule
	if n > 1 && p.Tiers > 1 {
		var err error
		if warm, err = warmStart(p); err != nil {
			return nil, err
		}
		start, sched = warm, warmSchedule(sched)
	}
	sched = sched.WithDefaults()
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("exchange: %v", err)
	}
	before, err := measure(p, initial)
	if err != nil {
		return nil, err
	}

	// Each restart lands at its index, so the reduction below is
	// scheduling-independent.
	runs := make([]restart, n)
	err = parallel.ForEachErr(ctx, n, opt.Workers, func(ctx context.Context, k int) error {
		st := newState(p, initial, opt, warm)
		cost0 := st.cost()
		rng := anneal.NewRand(anneal.SplitSeed(opt.Seed, k))
		s, err := anneal.MinimizeContext(ctx, st, cost0, sched, rng)
		if err != nil {
			return err
		}
		st.trk.resyncProxy() // clear bounded drift before scoring
		if s.Interrupted {
			// A cut anneal returns the lowest Eq 3 of the order it
			// reached, its start order and the initial order, ties in
			// that order: an interrupted exchange must never lose ground
			// on the initial order, even from a warm start.
			best, fallback := st.cost(), (*core.Assignment)(nil)
			if cost0 < best {
				best, fallback = cost0, start
			}
			if warm != nil && newState(p, initial, opt, nil).cur < best {
				fallback = initial
			}
			if fallback != nil {
				st.a = fallback.Clone()
			}
		}
		runs[k] = restart{st: st, stats: s, terms: eq3Terms(p, st)}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce in index order: the strict < breaks ties toward the lower
	// index, and restart 0 names a winner even when every cost is +Inf
	// or NaN.
	costs := make([]float64, n)
	win := 0
	for k := range runs {
		costs[k] = runs[k].terms.Total
		if costs[k] < costs[win] {
			win = k
		}
	}
	res, err := finishResult(p, runs[win], before, win, costs)
	if err != nil {
		return nil, err
	}
	recordRun(opt, sched, runs, res)
	return res, nil
}

// restart is one anneal of a run: its annealed state, the annealer's stats
// and the from-scratch Eq 3 terms of its final order.
type restart struct {
	st    *state
	stats anneal.Stats
	terms eq3Breakdown
}

// warmStart builds the start order of a warm multi-restart run with the
// congestion-driven engine the instance's size suits, and checks that it
// is monotonic-legal:
//
//   - Tiny rings (< 8 nets) go to IFA: at that size the insertion
//     heuristic is near-optimal and the flow machinery buys nothing.
//   - Instances the dense flow can afford (≤ 512 nets) with any supply
//     net to ladder go to MCMF: its congestion-exact matching plus the
//     Eq 3 IR ladder give the anneal the best-known starting basin.
//   - Everything else goes to DFA, the paper's best scalable engine.
func warmStart(p *core.Problem) (*core.Assignment, error) {
	var (
		w   *core.Assignment
		err error
	)
	switch nets := p.Circuit.NumNets(); {
	case nets < 8:
		w, err = assign.IFA(p)
	case nets <= 512 && hasSupplyNet(p.Circuit):
		w, err = assign.MCMF(p)
	default:
		w, err = assign.DFA(p, assign.DFAOptions{})
	}
	if err == nil {
		err = core.CheckMonotonic(p, w)
	}
	if err != nil {
		return nil, fmt.Errorf("exchange: warm start: %v", err)
	}
	return w, nil
}

// hasSupplyNet reports whether the circuit has a power or ground net.
func hasSupplyNet(c *netlist.Circuit) bool {
	for id := netlist.ID(0); int(id) < c.NumNets(); id++ {
		if c.Net(id).Class.SupplyClass() {
			return true
		}
	}
	return false
}

// warmSchedule is the schedule of a warm restart: s with its defaults
// resolved, entered at temperature 0.05 with half its plateau length (never
// below one move). A warm start already lands near a good basin, so its
// budget belongs in the low-temperature tail of the cooling ramp. A floor
// above 0.05 is the entry temperature instead, so such a schedule runs its
// last plateau rather than failing validation.
func warmSchedule(s anneal.Schedule) anneal.Schedule {
	s = s.WithDefaults()
	s.InitialTemp = max(0.05, s.FinalTemp)
	s.MovesPerTemp = max(s.MovesPerTemp/2, 1)
	return s
}

// finishResult evaluates the winning restart's final order and assembles the
// Result.
func finishResult(p *core.Problem, r restart, before Metrics, win int, costs []float64) (*Result, error) {
	st := r.st
	legal := core.CheckMonotonic(p, st.a) == nil
	after := Metrics{
		Proxy:      power.ProxyForAssignment(p, st.a),
		Omega:      stack.OmegaAssignment(p, st.a),
		BondLength: stack.TotalBondLength(p, st.a, stack.DefaultBondSpec(p)),
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
	rows := make([]int32, 0, p.Circuit.NumNets())
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
		n := len(rows)
		for _, id := range st.a.Slots[side] {
			rows = append(rows, st.sections[side].row[id])
		}
		st.rows[side] = rows[n:len(rows):len(rows)]
		if len(st.a.Slots[side]) >= 2 {
			st.sides = append(st.sides, side)
		}
	}
	st.trk = newTracker(p, st.a)
	st.setIDOther()
	if n := len(st.trk.supplyIdx); n > 0 {
		st.drawPad = newFixedIntn(n)
	}
	if len(st.sides) > 0 {
		st.drawSide = newFixedIntn(len(st.sides))
		for _, side := range st.sides {
			st.drawSlot[side] = newFixedIntn(len(st.a.Slots[side]))
		}
	}
	st.proxy0 = power.ProxyForAssignment(p, initial)
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
// always IR + ID (+ Omega for stacking), summed in that order, which the
// restart-selection goldens pin bit for bit.
type eq3Breakdown struct {
	IR, ID, Omega float64
	Total         float64
}

// eq3Terms recomputes Eq 3 for a state's current order from scratch.
// Restart selection goes through this, never through the incremental
// caches, so bounded floating-point drift can not flip a winner.
func eq3Terms(p *core.Problem, st *state) eq3Breakdown {
	idWorst := 0
	for _, side := range bga.Sides() {
		if v := st.sections[side].id(st.a.Slots[side]); v > idWorst {
			idWorst = v
		}
	}
	var b eq3Breakdown
	b.IR = st.lambda * power.ProxyForAssignment(p, st.a) / st.proxy0
	b.ID = st.rho * float64(idWorst)
	b.Total = b.IR + b.ID
	if p.Tiers > 1 {
		b.Omega = st.phi * float64(stack.OmegaAssignment(p, st.a)) / st.omega0
		b.Total += b.Omega
	}
	return b
}

// measure evaluates the initial order's Metrics. Its Eq 2 ID is 0 by
// definition: the initial order is the growth baseline.
func measure(p *core.Problem, a *core.Assignment) (Metrics, error) {
	rs, err := route.Evaluate(p, a)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{
		Proxy:      power.ProxyForAssignment(p, a),
		Omega:      stack.OmegaAssignment(p, a),
		MaxDensity: rs.MaxDensity,
		Wirelength: rs.Wirelength,
		BondLength: stack.TotalBondLength(p, a, stack.DefaultBondSpec(p)),
	}, nil
}
