// Package exp regenerates every table and figure of the paper's evaluation
// (see DESIGN.md's per-experiment index). Each experiment is a pure
// function of its seed, so runs are reproducible; Format methods render the
// same rows the paper prints.
package exp

import (
	"fmt"
	"math/rand"
	"strings"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/power"
	"copack/internal/route"
	"copack/internal/svgplot"
)

// RandomBaseline mimics the paper's "randomly optimized method": the best
// (lowest max-density) of tries random monotonic-legal assignments.
func RandomBaseline(p *core.Problem, rng *rand.Rand, tries int) (*core.Assignment, *route.Stats, error) {
	var bestA *core.Assignment
	var bestS *route.Stats
	for i := 0; i < tries; i++ {
		a, err := assign.Random(p, rng)
		if err != nil {
			return nil, nil, err
		}
		s, err := route.Evaluate(p, a)
		if err != nil {
			return nil, nil, err
		}
		if bestS == nil || s.MaxDensity < bestS.MaxDensity {
			bestA, bestS = a, s
		}
	}
	return bestA, bestS, nil
}

// --- Table 1 -----------------------------------------------------------------

// Table1Text renders the test-circuit parameter table.
func Table1Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %12s %12s %13s %12s\n",
		"circuit", "fingers", "ball space", "finger W", "finger H", "finger space")
	for _, tc := range gen.Table1() {
		fmt.Fprintf(&b, "%-10s %8d %12.3g %12.3g %13.3g %12.3g\n",
			tc.Name, tc.Fingers, tc.BallSpace, tc.FingerW, tc.FingerH, tc.FingerSpace)
	}
	return b.String()
}

// --- Table 2 -----------------------------------------------------------------

// Table2Row is one circuit's comparison of the three assignment methods.
type Table2Row struct {
	Circuit                               string
	RandomDensity, IFADensity, DFADensity int
	RandomWirelen, IFAWirelen, DFAWirelen float64
}

// Table2Result is the full Table 2 reproduction.
type Table2Result struct {
	Rows []Table2Row
	// Average ratios versus the random baseline (the paper's last row:
	// densities 1 / 0.63 / 0.36, wirelengths 1 / 0.88 / 0.82).
	AvgDensityIFA, AvgDensityDFA float64
	AvgWirelenIFA, AvgWirelenDFA float64
}

// Table2 reproduces Table 2: max package density and total routed
// wirelength for the random baseline, IFA and DFA on the five test
// circuits. It is Table2With run sequentially; the harness variant returns
// the identical result for any worker count.
func Table2(seed int64, randomTries int) (*Table2Result, error) {
	return Table2With(seed, randomTries, Harness{Workers: 1})
}

// Format renders the table in the paper's layout.
func (r *Table2Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s | %6s %5s %5s | %10s %10s %10s\n",
		"circuit", "random", "IFA", "DFA", "randomWL", "ifaWL", "dfaWL")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s | %6d %5d %5d | %10.0f %10.0f %10.0f\n",
			row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity,
			row.RandomWirelen, row.IFAWirelen, row.DFAWirelen)
	}
	fmt.Fprintf(&b, "%-10s | %6.2f %5.2f %5.2f | %10.2f %10.2f %10.2f\n",
		"avg ratio", 1.0, r.AvgDensityIFA, r.AvgDensityDFA, 1.0, r.AvgWirelenIFA, r.AvgWirelenDFA)
	return b.String()
}

// --- Table 3 -----------------------------------------------------------------

// Table3Row is one circuit's exchange outcome for one tier count.
type Table3Row struct {
	Circuit string
	Psi     int
	// DensityAfterDFA and DensityAfterExchange are the paper's two
	// density columns.
	DensityAfterDFA, DensityAfterExchange int
	// IRImprovedPct is (drop_before − drop_after)/drop_before·100 from
	// the full finite-difference solve.
	IRImprovedPct float64
	// BondImprovedPct is the paper's bonding-wire improvement: the drop
	// of the ω zero-bit count, normalized by the finger count
	// ((ω_before − ω_after)/α·100). Zero for ψ=1.
	BondImprovedPct float64
	// OmegaBefore/After expose the raw metric.
	OmegaBefore, OmegaAfter int
}

// Table3Result is the full Table 3 reproduction.
type Table3Result struct {
	Rows []Table3Row
	// Averages per tier count, as in the paper's last row.
	AvgIRPct   map[int]float64
	AvgBondPct float64
}

// Table3Grid returns the power grid used to score IR-drop in Table 3: the
// default chip grid at 41×41, odd so the multigrid solver coarsens it.
func Table3Grid(p *core.Problem) power.GridSpec {
	g := power.DefaultChipGrid(p)
	g.Nx, g.Ny = 41, 41
	return g
}

// Table3 reproduces Table 3: for every test circuit and ψ ∈ {1, 4}, run
// DFA, then the finger/pad exchange, and report the density before/after,
// the solved IR-drop improvement and (for ψ=4) the bonding improvement.
// It is Table3With run sequentially; the harness variant returns the
// identical result for any worker count.
func Table3(seed int64) (*Table3Result, error) {
	return Table3With(seed, Harness{Workers: 1})
}

// Format renders the table in the paper's layout.
func (r *Table3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s | %8s %8s | %9s | %9s\n",
		"circuit", "psi", "densDFA", "densExch", "IR imp %", "bond imp %")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %4d | %8d %8d | %9.2f | %9.2f\n",
			row.Circuit, row.Psi, row.DensityAfterDFA, row.DensityAfterExchange,
			row.IRImprovedPct, row.BondImprovedPct)
	}
	for _, psi := range []int{1, 4} {
		fmt.Fprintf(&b, "avg IR improvement (psi=%d): %.2f%%\n", psi, r.AvgIRPct[psi])
	}
	fmt.Fprintf(&b, "avg bonding improvement: %.2f%%\n", r.AvgBondPct)
	return b.String()
}

// --- Fig 5 / Fig 13 ----------------------------------------------------------

// FigDensities holds the worked-example density comparison.
type FigDensities struct {
	Name               string
	Random, IFA, DFA   int
	PaperRandom        int
	PaperIFA, PaperDFA int
}

// Fig5 reproduces the 12-net worked example: random order density 4, IFA
// and DFA density 2.
func Fig5() (*FigDensities, error) {
	p := gen.Fig5()
	r, err := route.EvaluateQuadrant(p, bga.Bottom, gen.Fig5RandomOrder())
	if err != nil {
		return nil, err
	}
	i, err := route.EvaluateQuadrant(p, bga.Bottom, assign.IFAQuadrant(p.Pkg.Quadrant(bga.Bottom)))
	if err != nil {
		return nil, err
	}
	d, err := route.EvaluateQuadrant(p, bga.Bottom, assign.DFAQuadrant(p.Pkg.Quadrant(bga.Bottom), assign.DFAOptions{}))
	if err != nil {
		return nil, err
	}
	return &FigDensities{Name: "fig5", Random: r.MaxDensity, IFA: i.MaxDensity, DFA: d.MaxDensity,
		PaperRandom: 4, PaperIFA: 2, PaperDFA: 2}, nil
}

// Fig13 reproduces the 20-net example: the paper's IFA order scores 6 and
// its DFA order 5; we evaluate our own algorithm outputs.
func Fig13() (*FigDensities, error) {
	p := gen.Fig13()
	i, err := route.EvaluateQuadrant(p, bga.Bottom, assign.IFAQuadrant(p.Pkg.Quadrant(bga.Bottom)))
	if err != nil {
		return nil, err
	}
	d, err := route.EvaluateQuadrant(p, bga.Bottom, assign.DFAQuadrant(p.Pkg.Quadrant(bga.Bottom), assign.DFAOptions{}))
	if err != nil {
		return nil, err
	}
	return &FigDensities{Name: "fig13", IFA: i.MaxDensity, DFA: d.MaxDensity,
		PaperIFA: 6, PaperDFA: 5}, nil
}

// Format renders a density comparison line.
func (f *FigDensities) Format() string {
	if f.PaperRandom > 0 {
		return fmt.Sprintf("%s: random %d (paper %d), IFA %d (paper %d), DFA %d (paper %d)",
			f.Name, f.Random, f.PaperRandom, f.IFA, f.PaperIFA, f.DFA, f.PaperDFA)
	}
	return fmt.Sprintf("%s: IFA %d (paper %d), DFA %d (paper %d)",
		f.Name, f.IFA, f.PaperIFA, f.DFA, f.PaperDFA)
}

// --- Fig 15 ------------------------------------------------------------------

// Fig15Result bundles the routing plots of circuit 2.
type Fig15Result struct {
	// SVG maps method name (random, ifa, dfa) to the rendered plot.
	SVG map[string][]byte
	// Density and Wirelen per method.
	Density map[string]int
	Wirelen map[string]float64
}

// Fig15 reproduces the routing plots of circuit 2 under the three
// assignment methods.
func Fig15(seed int64) (*Fig15Result, error) {
	p, err := gen.Build(gen.Table1()[1], gen.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	randA, _, err := RandomBaseline(p, rng, 10)
	if err != nil {
		return nil, err
	}
	ifaA, err := assign.IFA(p)
	if err != nil {
		return nil, err
	}
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return nil, err
	}
	out := &Fig15Result{
		SVG:     make(map[string][]byte),
		Density: make(map[string]int),
		Wirelen: make(map[string]float64),
	}
	for name, a := range map[string]*core.Assignment{"random": randA, "ifa": ifaA, "dfa": dfaA} {
		r, err := route.Realize(p, a)
		if err != nil {
			return nil, err
		}
		out.SVG[name] = svgplot.Routing(p, r, "circuit2 "+name)
		out.Density[name] = r.Stats.MaxDensity
		out.Wirelen[name] = r.TotalLength()
	}
	return out, nil
}
