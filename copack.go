// Package copack is a chip-package co-design library: it decides the order
// of nets on a BGA package's finger ring (equivalently, the chip's pad
// ring) so that the package routes with low wire congestion and short
// wirelength, the chip core sees low IR-drop, and — for stacked (SiP/3-D)
// dies — the bonding wires stay short.
//
// It is a from-scratch reproduction of Lu, Chen, Liu and Shih,
// "Package routability- and IR-drop-aware finger/pad assignment in
// chip-package co-design" (DATE 2009) and its journal extension in
// INTEGRATION, the VLSI Journal (2012). See DESIGN.md for the system
// inventory and EXPERIMENTS.md for the reproduced evaluation.
//
// The typical flow is two calls:
//
//	p, _ := copack.BuildCircuit(copack.Table1Circuits()[0], copack.BuildOptions{Seed: 1})
//	res, _ := copack.Plan(p, copack.Options{})
//
// Plan runs a congestion-driven assignment (DFA by default) followed by the
// simulated-annealing finger/pad exchange, and reports densities,
// wirelength, IR-drop and bonding metrics before and after.
package copack

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/design"
	"copack/internal/drc"
	"copack/internal/exchange"
	"copack/internal/faultinject"
	"copack/internal/floorplan"
	"copack/internal/gen"
	"copack/internal/netlist"
	"copack/internal/obs"
	"copack/internal/parallel"
	"copack/internal/power"
	"copack/internal/route"
	"copack/internal/stack"
	"copack/internal/svgplot"
)

// Re-exported domain types. The aliases make the internal packages' types
// part of the public API without duplicating them.
type (
	// Problem couples a circuit, a BGA package and the tier count ψ.
	Problem = core.Problem
	// Assignment is the per-quadrant net order on the finger ring.
	Assignment = core.Assignment
	// Circuit is the set of chip nets.
	Circuit = netlist.Circuit
	// Net is one chip net.
	Net = netlist.Net
	// NetClass is signal/power/ground.
	NetClass = netlist.NetClass
	// NetID identifies a net within its circuit.
	NetID = netlist.ID
	// Package is the four-quadrant BGA model.
	Package = bga.Package
	// Side names a package quadrant.
	Side = bga.Side
	// RouteStats is the density/wirelength evaluation of an assignment.
	RouteStats = route.Stats
	// Routing is a fully realized wire geometry.
	Routing = route.Routing
	// GridSpec is the IR-drop power-grid model.
	GridSpec = power.GridSpec
	// IRSolution is a solved power grid.
	IRSolution = power.Solution
	// ExchangeResult reports a finger/pad exchange run.
	ExchangeResult = exchange.Result
	// ExchangeMetrics is the before/after quality snapshot.
	ExchangeMetrics = exchange.Metrics
	// Schedule is the annealing schedule.
	Schedule = anneal.Schedule
	// TestCircuit is a Table 1-style instance description.
	TestCircuit = gen.TestCircuit
	// BuildOptions controls instance generation.
	BuildOptions = gen.Options
	// BondSpec is the stacked-die bonding-wire geometry.
	BondSpec = stack.BondSpec
	// DRCReport lists design-rule violations.
	DRCReport = drc.Report
	// ViaPlan overrides default via sites (the [10]-style improvement).
	ViaPlan = route.ViaPlan
	// Floorplan shapes the core's current map from placed blocks.
	Floorplan = floorplan.Floorplan
	// FloorplanBlock is one placed macro.
	FloorplanBlock = floorplan.Block
	// Recorder is the observability sink Plan reports its telemetry to
	// (see Options.Recorder). Implementations must be safe for concurrent
	// use and must treat recording as write-only.
	Recorder = obs.Recorder
	// NopRecorder is the disabled Recorder: all methods free no-ops.
	NopRecorder = obs.NopRecorder
	// MetricsCollector is the standard Recorder: it accumulates every
	// metric in memory and renders a deterministic Snapshot.
	MetricsCollector = obs.Collector
	// MetricsSnapshot is a Collector's state: counters, gauges, timers
	// and pipeline phase events, JSON-marshalable with stable key order.
	MetricsSnapshot = obs.Snapshot
)

// Net classes.
const (
	Signal = netlist.Signal
	Power  = netlist.Power
	Ground = netlist.Ground
)

// Package sides.
const (
	Bottom = bga.Bottom
	Right  = bga.Right
	Top    = bga.Top
	Left   = bga.Left
)

// Algorithm selects the congestion-driven assignment method.
type Algorithm int

const (
	// DFA is the density-interval-based method — the paper's best.
	DFA Algorithm = iota
	// IFA is the intuitive-insertion-based method.
	IFA
	// RandomAssign is the monotonic-legal random baseline.
	RandomAssign
	// MCMF is the min-cost max-flow engine: an exact bipartite
	// net-to-slot matching under congestion- and IR-aware edge costs,
	// uncrossed into a monotonic-legal order. It doubles as the exchange
	// step's warm start: the restarts of a multi-restart run of a
	// stacking IC with at most 512 nets anneal from its order (see
	// ExchangeOptions.Restarts).
	MCMF
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case DFA:
		return "dfa"
	case IFA:
		return "ifa"
	case RandomAssign:
		return "random"
	case MCMF:
		return "mcmf"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm converts a CLI token to an Algorithm. Matching is
// case-insensitive and ignores surrounding whitespace, so "IFA" and
// " dfa " parse the same as their canonical lowercase forms.
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "dfa":
		return DFA, nil
	case "ifa":
		return IFA, nil
	case "random":
		return RandomAssign, nil
	case "mcmf":
		return MCMF, nil
	default:
		return 0, fmt.Errorf("copack: unknown algorithm %q (want dfa, ifa, random or mcmf)", s)
	}
}

// Options configures Plan.
type Options struct {
	// Algorithm is the congestion-driven assignment step (default DFA).
	Algorithm Algorithm
	// DFACut is the paper's cut-line parameter n (default 1).
	DFACut int
	// SkipExchange stops after the congestion-driven step.
	SkipExchange bool
	// Exchange tunes the annealing step; the zero value uses the
	// defaults of the exchange package. Exchange.Workers bounds how many
	// restarts anneal at once (0 means one per CPU); it never changes the
	// result. The plan's other concurrency needs no setting: with a
	// second CPU, the ir-before solve runs beside the exchange.
	Exchange ExchangeOptions
	// Seed drives every random choice (baseline assignment and
	// annealing).
	Seed int64
	// Budget bounds the planning wall-clock. When it elapses the pipeline
	// stops at the next stage checkpoint and returns the best-so-far
	// state as a Partial result. Zero means no budget; combine freely
	// with a caller deadline on PlanContext's ctx — whichever is sooner
	// wins.
	Budget time.Duration
	// Recorder receives the plan's telemetry: phase spans for every
	// pipeline stage, routing density histograms (route/initial/...,
	// route/final/...), IR solver internals (power/ir-before/...,
	// power/ir-after/...) and the exchange/anneal per-restart counters.
	// Nil disables recording at zero cost. Recording NEVER changes the
	// result: an instrumented run is bit-identical to an uninstrumented
	// one (the exchange golden tests and the plan determinism tests
	// enforce this). Use NewMetricsCollector and write its Snapshot.
	Recorder Recorder
}

// NewMetricsCollector returns an empty MetricsCollector ready to be set as
// Options.Recorder.
func NewMetricsCollector() *MetricsCollector { return obs.NewCollector() }

// ExchangeOptions re-exports the exchange step's tuning knobs.
type ExchangeOptions = exchange.Options

// Result is the outcome of Plan.
type Result struct {
	// Assignment is the final finger/pad order.
	Assignment *Assignment
	// Initial is the congestion-driven order before exchanging (equal to
	// Assignment when SkipExchange is set).
	Initial *Assignment
	// InitialStats and FinalStats are the routing evaluations.
	InitialStats, FinalStats *RouteStats
	// Exchange is the annealer's report (nil when SkipExchange).
	Exchange *ExchangeResult
	// IRDropBefore and IRDropAfter are the solved maximum core IR-drops
	// in volts.
	IRDropBefore, IRDropAfter float64
	// OmegaBefore and OmegaAfter are the bonding-wire interleaving
	// metrics (0 for 2-D ICs).
	OmegaBefore, OmegaAfter int
	// Partial reports that the run was cut short — deadline, caller
	// cancellation or a starved IR solver — and every field above holds
	// the best-so-far state: the Assignment is always monotonic-legal,
	// and the exchange cost never scores it above the initial order, and
	// the IR-drop numbers are the solver's best available estimate (its
	// current iterate, or the previous stage's solve when the cut came
	// before the first iteration). The exchange cost's minimum is the
	// initial order itself, and an anneal cut part-way nearly always
	// stands above it, so a cut exchange returns the lowest-cost of the
	// order it reached, its start order and Initial: a Budget that cuts
	// the exchange returns Initial, with none of the exchange's IR-drop
	// or bonding gain (see DESIGN.md, "What the exchange's objective
	// ranks"). That holds for a warm multi-restart run of a stacking IC
	// (ψ ≥ 2) too (see ExchangeOptions.Restarts).
	Partial bool
	// Stopped says where and why a Partial run stopped (for example
	// "exchange: context deadline exceeded"); empty for a complete run.
	Stopped string
}

// PanicError is what the public entry points (PlanContext, ParseCircuit,
// ReadDesign, …) return when an internal invariant breaks: the panic is
// caught at the API boundary and wrapped so no input — however malformed —
// can crash the process. Stage names the entry point, Value the recovered
// panic and Stack the goroutine stack at recovery time.
type PanicError struct {
	Stage string
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("copack: internal panic in %s: %v", e.Stage, e.Value)
}

// recoverStage converts a panic escaping a public entry point into a
// *PanicError. Use as: defer recoverStage("plan", &err).
func recoverStage(stage string, err *error) {
	if r := recover(); r != nil {
		pe := &PanicError{Stage: stage, Value: r, Stack: debug.Stack()}
		// A panic in a pooled item (a restart, or the ir-before solve,
		// on its own goroutine) comes back re-raised by the pool: report
		// the item's value and stack, as a run on this goroutine would.
		if p, ok := r.(parallel.Panic); ok {
			pe.Value, pe.Stack = p.Value, p.Stack
		}
		*err = pe
	}
}

// ErrNoPowerNet reports a design with no power net. Every net sits on a
// ball, so a power net is a power pad; the IR-drop model solves against
// the power pads and has no supply without one. PlanContext returns it,
// wrapped, before any assignment runs; match it with errors.Is.
var ErrNoPowerNet = errors.New("no power net: the IR-drop model needs at least one power pad")

// Plan runs the paper's two-step flow on a problem: congestion-driven
// assignment, then the IR-drop- and bonding-aware finger/pad exchange.
// It is PlanContext with a background context: it never times out, but it
// still cannot panic, and it still reports a starved IR solver as Partial.
func Plan(p *Problem, opt Options) (*Result, error) {
	return PlanContext(context.Background(), p, opt)
}

// PlanContext runs the planning pipeline under a context: cancel ctx (or
// set Options.Budget, or both) and the pipeline stops at the next stage
// checkpoint — mid-anneal, mid-solver-iteration or between stages — and
// returns the best state reached so far as a Partial result instead of an
// error. The returned Assignment is always monotonic-legal: the
// congestion-driven step runs to completion (it is the fast part), and
// every anneal move preserves legality, so interruption can only cost
// optimization quality, never correctness. Cancellation before the initial
// assignment exists is the one case that returns ctx's error, because
// there is no state worth returning. A design with no power net fails
// with ErrNoPowerNet before any work.
//
// An uncancelled PlanContext run is byte-for-byte identical to Plan for
// the same Options: the cancellation checkpoints never touch the random
// stream.
func PlanContext(ctx context.Context, p *Problem, opt Options) (res *Result, err error) {
	defer recoverStage("plan", &err)
	if p == nil {
		return nil, fmt.Errorf("copack: nil problem")
	}
	if p.Circuit.CountByClass()[Power] == 0 {
		return nil, fmt.Errorf("copack: %w", ErrNoPowerNet)
	}
	if opt.Budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Budget)
		defer cancel()
	}
	// stop records the first reason the run degraded to a partial result
	// (an empty reason is none); later stages still run (fast, on
	// best-so-far state) so the report stays complete.
	stop := func(res *Result, reason string) {
		if reason != "" && !res.Partial {
			res.Partial = true
			res.Stopped = reason
		}
	}
	checkpoint := func(stage string) error {
		if err := faultinject.Fire(faultinject.PlanStage); err != nil {
			return fmt.Errorf("copack: %s: %v", stage, err)
		}
		return nil
	}

	// rec receives the pipeline's telemetry. Recording happens strictly
	// after each stage's computation (and the phase spans only read the
	// clock), so an instrumented run draws the same random streams and
	// returns bit-identical results to an uninstrumented one.
	rec := obs.OrNop(opt.Recorder)

	if err := ctx.Err(); err != nil {
		return nil, err // nothing computed yet: no partial state to return
	}
	if err := checkpoint("assign"); err != nil {
		return nil, err
	}
	endAssign := obs.StartPhase(rec, "assign")
	var initial *Assignment
	switch opt.Algorithm {
	case DFA:
		initial, err = assign.DFA(p, assign.DFAOptions{Cut: opt.DFACut})
	case IFA:
		initial, err = assign.IFA(p)
	case RandomAssign:
		initial, err = assign.Random(p, rand.New(rand.NewSource(opt.Seed)))
	case MCMF:
		initial, err = assign.MCMF(p)
	default:
		err = fmt.Errorf("copack: unknown algorithm %v", opt.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	res = &Result{Initial: initial, Assignment: initial}
	if res.InitialStats, err = route.EvaluateObserved(p, initial, obs.WithPrefix(rec, "route/initial/")); err != nil {
		return nil, err
	}
	endAssign()
	res.FinalStats = res.InitialStats

	grid := power.DefaultChipGrid(p)
	// solveDrop solves the grid under an order's power pads. It records
	// the solver's telemetry but no phase or stop reason: its caller
	// records those in pipeline order. stopped says why a solve that did
	// not converge ended.
	solveDrop := func(a *Assignment, stage string, prev float64) (drop float64, stopped string, err error) {
		sol, err := power.SolveAssignmentContext(ctx, p, a, grid,
			power.SolveOptions{Recorder: obs.WithPrefix(rec, "power/"+stage+"/")})
		if err != nil {
			return 0, "", err
		}
		if !sol.Converged {
			stopped = fmt.Sprintf("%s: IR solver stopped after %d iterations (%s; residual %.3g)",
				stage, sol.Iterations, sol.Stopped, sol.Residual)
			if sol.Iterations == 0 {
				// The solve was cut before its first iteration: the
				// iterate is the flat initial guess (zero drop), which
				// would misreport as a perfect grid. Keep the previous
				// estimate instead.
				return prev, stopped, nil
			}
		}
		return sol.MaxDrop(), stopped, nil
	}
	res.OmegaBefore = stack.OmegaAssignment(p, initial)
	res.OmegaAfter = res.OmegaBefore
	if err := checkpoint("ir-before"); err != nil {
		return nil, err
	}

	exOpt := opt.Exchange
	if exOpt.Seed == 0 {
		exOpt.Seed = opt.Seed
	}
	if exOpt.Recorder == nil {
		// exchange self-namespaces under exchange/ and anneal/.
		exOpt.Recorder = opt.Recorder
	}
	// The ir-before solve and the exchange read only the initial order, so
	// they run as the two items of one pool: side by side when a second CPU
	// is free, and in pipeline order on this goroutine at GOMAXPROCS 1.
	// Each stage times itself and keeps its outcome in its own variables;
	// the phases and stop reasons are recorded after the join, in pipeline
	// order. exCtx cancels the exchange when ir-before fails or panics, so
	// a failed plan does not wait out an anneal.
	var (
		dropBefore               float64
		stopBefore, skipped      string
		ex                       *ExchangeResult
		final                    *RouteStats
		tookBefore, tookExchange time.Duration
	)
	exCtx, cancelExchange := context.WithCancel(ctx)
	defer cancelExchange()
	stages := 2
	if opt.SkipExchange {
		stages = 1
	}
	err = parallel.ForEachErr(ctx, stages, 0, func(_ context.Context, stage int) error {
		start := time.Now()
		if stage == 0 {
			solved := false
			defer func() {
				if !solved {
					cancelExchange()
				}
			}()
			var err error
			if dropBefore, stopBefore, err = solveDrop(initial, "ir-before", 0); err != nil {
				return err
			}
			solved, tookBefore = true, time.Since(start)
			return nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The deadline already passed: the initial assignment is the
			// best-so-far answer.
			skipped = fmt.Sprintf("exchange skipped: %v", cerr)
			return nil
		}
		if err := checkpoint("exchange"); err != nil {
			return err
		}
		var err error
		if ex, err = exchange.RunContext(exCtx, p, initial, exOpt); err != nil {
			return err
		}
		if final, err = route.EvaluateObserved(p, ex.Assignment, obs.WithPrefix(rec, "route/final/")); err != nil {
			return err
		}
		tookExchange = time.Since(start)
		return nil
	})
	if err != nil {
		return nil, err
	}
	rec.Phase("ir-before", tookBefore)
	stop(res, stopBefore)
	res.IRDropBefore, res.IRDropAfter = dropBefore, dropBefore
	if opt.SkipExchange {
		return res, nil
	}
	if skipped != "" {
		stop(res, skipped)
		return res, nil
	}
	rec.Phase("exchange", tookExchange)
	if ex.Interrupted {
		stop(res, fmt.Sprintf("exchange: %s", ex.Stats.Stopped))
	}
	res.Exchange, res.Assignment, res.FinalStats = ex, ex.Assignment, final
	if err := checkpoint("ir-after"); err != nil {
		return nil, err
	}
	endAfter := obs.StartPhase(rec, "ir-after")
	dropAfter, stopped, err := solveDrop(ex.Assignment, "ir-after", res.IRDropBefore)
	if err != nil {
		return nil, err
	}
	endAfter()
	stop(res, stopped)
	res.IRDropAfter = dropAfter
	res.OmegaAfter = ex.After.Omega
	return res, nil
}

// --- Re-exported constructors and helpers ------------------------------------

// Table1Circuits returns the paper's five test circuits.
func Table1Circuits() []TestCircuit { return gen.Table1() }

// BuildCircuit constructs a problem instance from a Table 1-style
// description.
func BuildCircuit(tc TestCircuit, opt BuildOptions) (p *Problem, err error) {
	defer recoverStage("build-circuit", &err)
	return gen.Build(tc, opt)
}

// NewProblem validates and couples a circuit, package and tier count.
func NewProblem(c *Circuit, pkg *Package, tiers int) (*Problem, error) {
	return core.NewProblem(c, pkg, tiers)
}

// ParseCircuit reads a circuit from the text format of the netlist package.
func ParseCircuit(text string) (c *Circuit, err error) {
	defer recoverStage("parse-circuit", &err)
	return netlist.Parse(text)
}

// CheckMonotonic verifies the via-order rule that guarantees a legal
// monotonic package routing.
func CheckMonotonic(p *Problem, a *Assignment) error { return core.CheckMonotonic(p, a) }

// EvaluateRouting computes density and wirelength for an assignment.
func EvaluateRouting(p *Problem, a *Assignment) (*RouteStats, error) {
	return route.Evaluate(p, a)
}

// RealizeRouting produces concrete wire geometry for an assignment.
func RealizeRouting(p *Problem, a *Assignment) (*Routing, error) {
	return route.Realize(p, a)
}

// RoutingSVG renders a realized routing as an SVG document.
func RoutingSVG(p *Problem, r *Routing, title string) []byte {
	return svgplot.Routing(p, r, title)
}

// DefaultChipGrid returns an IR-drop grid sized to the problem's package.
func DefaultChipGrid(p *Problem) GridSpec { return power.DefaultChipGrid(p) }

// SolveIRDrop solves the core power grid under an assignment's supply pads.
func SolveIRDrop(p *Problem, a *Assignment, g GridSpec) (*IRSolution, error) {
	return power.SolveAssignment(p, a, g, power.SolveOptions{})
}

// IRMapSVG renders a solved power grid as a heat-map SVG.
func IRMapSVG(p *Problem, a *Assignment, sol *IRSolution, title string) []byte {
	return svgplot.IRMap(sol, power.PadsForAssignment(p, a, sol.Spec), title)
}

// TotalBondLength sums the stacked-die bonding-wire length model.
func TotalBondLength(p *Problem, a *Assignment, spec BondSpec) float64 {
	return stack.TotalBondLength(p, a, spec)
}

// DefaultBondSpec sizes the bonding pyramid to the package.
func DefaultBondSpec(p *Problem) BondSpec { return stack.DefaultBondSpec(p) }

// CheckDesignRules runs the full design-rule check: static spec rules,
// monotonic routability and per-segment wire capacity.
func CheckDesignRules(p *Problem, a *Assignment) (*DRCReport, error) {
	return drc.Check(p, a)
}

// ReadDesign parses a complete problem (circuit + package + ball map) from
// the design file format documented in internal/design.
func ReadDesign(r io.Reader) (p *Problem, err error) {
	defer recoverStage("read-design", &err)
	return design.Read(r)
}

// ParseDesign parses a design file from a string.
func ParseDesign(text string) (p *Problem, err error) {
	defer recoverStage("parse-design", &err)
	return design.Parse(text)
}

// WriteDesign serializes a problem in the design file format.
func WriteDesign(w io.Writer, p *Problem) error { return design.Write(w, p) }

// FormatDesign renders a problem as a design-file string.
func FormatDesign(p *Problem) string { return design.Format(p) }

// WriteSolution serializes a problem plus a planned finger order (order
// directives) so downstream tools see both the instance and the plan.
func WriteSolution(w io.Writer, p *Problem, a *Assignment) error {
	return design.WriteSolution(w, p, a)
}

// ReadSolution parses a design file, returning the assignment carried by
// its order directives (nil when absent).
func ReadSolution(r io.Reader) (p *Problem, a *Assignment, err error) {
	defer recoverStage("read-solution", &err)
	return design.ReadSolution(r)
}

// ImproveVias runs the Kubo–Takahashi-style iterative via improvement on
// every quadrant of an assignment, returning the per-quadrant via plans and
// the improved routing stats. It never worsens the density.
func ImproveVias(p *Problem, a *Assignment, maxPasses int) ([4]ViaPlan, *RouteStats, error) {
	plans, st, _, err := ImproveViasContext(context.Background(), p, a, maxPasses)
	return plans, st, err
}

// ImproveViasContext is ImproveVias with cancellation: when ctx expires the
// improvement stops at the best plan reached so far (never worse than the
// default bottom-left-corner plan) and stopped reports the cut.
func ImproveViasContext(ctx context.Context, p *Problem, a *Assignment, maxPasses int) (plans [4]ViaPlan, st *RouteStats, stopped bool, err error) {
	defer recoverStage("improve-vias", &err)
	return route.ImproveViasAllContext(ctx, p, a, maxPasses)
}
