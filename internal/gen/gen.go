// Package gen constructs co-design problem instances: the two worked
// examples of the paper (Fig 5 and Fig 13), the five Table 1 test circuits,
// and seeded random instances.
//
// The paper's five "simplified industrial circuits" are proprietary; Table 1
// publishes their complete geometric parameters (finger/pad counts, ball
// space, finger width/height/space, four ball lines per side). The
// assignment algorithms consume nothing else, so instances built from those
// parameters with a seeded random net-to-ball mapping exercise exactly the
// same code paths — see DESIGN.md for the substitution argument.
package gen

import (
	"fmt"
	"math/rand"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
)

// TestCircuit mirrors one row of Table 1 (lengths in µm).
type TestCircuit struct {
	Name        string
	Fingers     int // total finger/pad count α
	BallSpace   float64
	FingerW     float64
	FingerH     float64
	FingerSpace float64
}

// Table1 returns the five test circuits exactly as published in Table 1 of
// the paper.
func Table1() []TestCircuit {
	return []TestCircuit{
		{Name: "circuit1", Fingers: 96, BallSpace: 2.0, FingerW: 0.025, FingerH: 0.4, FingerSpace: 0.025},
		{Name: "circuit2", Fingers: 160, BallSpace: 1.4, FingerW: 0.006, FingerH: 0.3, FingerSpace: 0.1},
		{Name: "circuit3", Fingers: 208, BallSpace: 1.2, FingerW: 0.006, FingerH: 0.2, FingerSpace: 0.007},
		{Name: "circuit4", Fingers: 352, BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12},
		{Name: "circuit5", Fingers: 448, BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12},
	}
}

// Large returns the synthetic large-N scaling circuit: 102400 fingers
// (25600 nets per quadrant), far beyond Table 1's 448-finger maximum. The
// geometric parameters reuse circuit5's, since nothing in the assignment or
// density model depends on net count and absolute dimensions together; the
// point of this tier is to exercise the O(n log n) assignment, the windowed
// density tracking and the parallel layer at a size where asymptotics, not
// constants, dominate. Build it with a seeded Options like any Table 1 row.
func Large() TestCircuit {
	return TestCircuit{Name: "large", Fingers: 102400, BallSpace: 1.2, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
}

// Options controls instance construction.
type Options struct {
	// Seed drives the random net-to-ball mapping; instances are fully
	// deterministic in (circuit, Seed, Tiers).
	Seed int64
	// Tiers is ψ; nets are distributed round-robin over tiers. Default 1.
	Tiers int
	// PowerEvery makes every k-th net a power net (default 5); GroundEvery
	// makes every k-th remaining net a ground net (default 7). Set to -1
	// to disable a class.
	PowerEvery, GroundEvery int
	// Rows is the number of ball lines per quadrant; the paper fixes 4.
	Rows int
}

func (o Options) withDefaults() Options {
	if o.Tiers == 0 {
		o.Tiers = 1
	}
	if o.PowerEvery == 0 {
		o.PowerEvery = 5
	}
	if o.GroundEvery == 0 {
		o.GroundEvery = 7
	}
	if o.Rows == 0 {
		o.Rows = 4
	}
	return o
}

// rowWidths distributes n nets over rows ball lines the way the paper's
// figures draw a BGA quadrant: a trapezoid whose outer lines are wider
// (Fig 13 uses widths 2,4,6,8 from the top line down). When n is too small
// for the trapezoid (base width would drop below 1) it falls back to an even
// split with the remainder on the outer lines. The returned slice is indexed
// from the top line (y = rows) down, matching bga.NewQuadrant's input order.
func rowWidths(n, rows int) []int {
	out := make([]int, rows)
	base := n/rows - (rows - 1)
	if n%rows == 0 && base >= 1 {
		for i := 0; i < rows; i++ { // i=0 is the top line, narrowest
			out[i] = base + 2*i
		}
		return out
	}
	for i := range out {
		out[i] = n / rows
	}
	for r := n % rows; r > 0; r-- {
		out[rows-r]++ // pad the outer lines first
	}
	return out
}

// Build constructs a problem instance for a Table 1 circuit (or any custom
// TestCircuit): each quadrant receives Fingers/4 nets spread over Rows ball
// lines in a trapezoid (outer lines wider, one spare via site per line),
// with the net-to-ball mapping drawn from Seed.
func Build(tc TestCircuit, opt Options) (*core.Problem, error) {
	opt = opt.withDefaults()
	if tc.Fingers < bga.NumSides*opt.Rows {
		return nil, fmt.Errorf("gen: finger count %d cannot fill %d lines on %d sides", tc.Fingers, opt.Rows, bga.NumSides)
	}

	c := netlist.New(tc.Name)
	for i := 0; i < tc.Fingers; i++ {
		class := netlist.Signal
		switch {
		case opt.PowerEvery > 0 && i%opt.PowerEvery == 0:
			class = netlist.Power
		case opt.GroundEvery > 0 && i%opt.GroundEvery == 0:
			class = netlist.Ground
		}
		// AddNet, not MustAddNet: Build sits behind the public
		// copack.BuildCircuit, so constructor failures must surface as
		// errors, never as panics — even for option combinations the
		// generator did not anticipate.
		if _, err := c.AddNet(netlist.Net{
			Name:  fmt.Sprintf("N%d", i),
			Class: class,
			Tier:  1 + i%opt.Tiers,
		}); err != nil {
			return nil, fmt.Errorf("gen: %v", err)
		}
	}

	rng := rand.New(rand.NewSource(opt.Seed))
	var quads [bga.NumSides]*bga.Quadrant
	base := 0
	for _, side := range bga.Sides() {
		// Quadrants split the fingers as evenly as possible; earlier
		// sides absorb the remainder.
		perQuad := tc.Fingers / bga.NumSides
		if int(side) < tc.Fingers%bga.NumSides {
			perQuad++
		}
		widths := rowWidths(perQuad, opt.Rows)
		perm := rng.Perm(perQuad) // ball order of the quadrant's nets
		rows := make([]bga.Row, opt.Rows)
		next := 0
		for r := range rows {
			// One spare (unoccupied) via site at the right end of
			// every line, as in the paper's Fig 13 instance.
			nets := make([]netlist.ID, widths[r]+1)
			for x := 0; x < widths[r]; x++ {
				nets[x] = netlist.ID(base + perm[next])
				next++
			}
			nets[widths[r]] = bga.NoNet
			rows[r] = bga.Row{Nets: nets}
		}
		q, err := bga.NewQuadrant(side, rows)
		if err != nil {
			return nil, err
		}
		quads[side] = q
		base += perQuad
	}

	spec := bga.Spec{
		Name:         tc.Name,
		BallDiameter: 0.2, // paper: "the diameter of BGA bump ball is set at 0.2 µm"
		BallSpace:    tc.BallSpace,
		ViaDiameter:  0.1, // paper: "the via diameter is set at 0.1 µm"
		FingerWidth:  tc.FingerW,
		FingerHeight: tc.FingerH,
		FingerSpace:  tc.FingerSpace,
		Rows:         opt.Rows,
	}
	pkg, err := bga.NewPackage(spec, quads)
	if err != nil {
		return nil, err
	}
	return core.NewProblem(c, pkg, opt.Tiers)
}

// MustBuild is Build for known-good inputs; it panics on error.
func MustBuild(tc TestCircuit, opt Options) *core.Problem {
	p, err := Build(tc, opt)
	if err != nil {
		panic(err)
	}
	return p
}

func idRow(xs ...int) bga.Row {
	nets := make([]netlist.ID, len(xs))
	for i, x := range xs {
		nets[i] = netlist.ID(x)
	}
	return bga.Row{Nets: nets}
}

const noNet = int(bga.NoNet)

// fillerQuadrant builds a minimal rows-line quadrant holding one net per
// line starting at net id base. The worked-example fixtures use fillers for
// the three quadrants the paper's figures do not draw.
//
// The panics in this function and in Fig5/Fig13 below are true invariant
// panics, not input handling: the fixtures are compile-time constants
// transcribed from the paper's figures, so a constructor error here means
// the source code itself is wrong. No user input reaches them.
func fillerQuadrant(side bga.Side, base, rows int) *bga.Quadrant {
	rr := make([]bga.Row, rows)
	for i := range rr {
		rr[i] = idRow(base + i)
	}
	q, err := bga.NewQuadrant(side, rr)
	if err != nil {
		panic(err)
	}
	return q
}

// Fig5 reconstructs the 12-net worked example used by Figs 5, 10 and 12 of
// the paper in the Bottom quadrant: line y=3 holds nets 11,6,9 (and one
// empty fourth via site — the paper's DFA trace counts 4 via sites with 3
// used on the highest line), y=2 holds 1,3,5,8 and y=1 holds 10,2,4,7,0.
// Net IDs equal the paper's net numbers; names are the decimal numbers.
func Fig5() *core.Problem {
	c := netlist.New("fig5")
	for i := 0; i < 12; i++ {
		c.MustAddNet(netlist.Net{Name: fmt.Sprintf("%d", i), Class: netlist.Signal, Tier: 1})
	}
	for i := 0; i < 9; i++ {
		c.MustAddNet(netlist.Net{Name: fmt.Sprintf("f%d", i), Class: netlist.Signal, Tier: 1})
	}
	bq, err := bga.NewQuadrant(bga.Bottom, []bga.Row{
		idRow(11, 6, 9, noNet),
		idRow(1, 3, 5, 8),
		idRow(10, 2, 4, 7, 0),
	})
	if err != nil {
		panic(err)
	}
	quads := [bga.NumSides]*bga.Quadrant{
		bga.Bottom: bq,
		bga.Right:  fillerQuadrant(bga.Right, 12, 3),
		bga.Top:    fillerQuadrant(bga.Top, 15, 3),
		bga.Left:   fillerQuadrant(bga.Left, 18, 3),
	}
	spec := bga.Spec{Name: "fig5", BallDiameter: 0.2, BallSpace: 1.2, ViaDiameter: 0.1,
		FingerWidth: 0.1, FingerHeight: 0.2, FingerSpace: 0.12, Rows: 3}
	pkg, err := bga.NewPackage(spec, quads)
	if err != nil {
		panic(err)
	}
	p, err := core.NewProblem(c, pkg, 1)
	if err != nil {
		panic(err)
	}
	return p
}

// Fig5RandomOrder is the paper's Fig 5(A) "random method" finger order for
// the Bottom quadrant (max density 4).
func Fig5RandomOrder() []netlist.ID {
	return []netlist.ID{10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0}
}

// Fig5IFAOrder is the IFA result of Fig 10 (max density 2).
func Fig5IFAOrder() []netlist.ID {
	return []netlist.ID{10, 1, 11, 2, 3, 6, 4, 5, 9, 7, 8, 0}
}

// Fig5DFAOrder is the DFA result of Figs 5(B)/12 (max density 2).
func Fig5DFAOrder() []netlist.ID {
	return []netlist.ID{10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0}
}

// Fig13 reconstructs the 20-net, 4-line example of Fig 13, on which the
// paper's printed IFA order yields density 6 and its DFA order density 5.
// Net IDs are the paper's net numbers minus one (the paper numbers nets
// 1..20); names are the paper's numbers. Line y=4 holds nets 1,2; y=3 holds
// 3..6; y=2 holds 7..12; y=1 holds 13..20. Each line carries one unused via
// site at its right end — the figure's peak density occurs "between
// assigned and unassigned vias", which requires those sites to exist.
func Fig13() *core.Problem {
	c := netlist.New("fig13")
	for i := 1; i <= 20; i++ {
		c.MustAddNet(netlist.Net{Name: fmt.Sprintf("%d", i), Class: netlist.Signal, Tier: 1})
	}
	for i := 0; i < 12; i++ {
		c.MustAddNet(netlist.Net{Name: fmt.Sprintf("f%d", i), Class: netlist.Signal, Tier: 1})
	}
	// IDs are paper numbers - 1.
	bq, err := bga.NewQuadrant(bga.Bottom, []bga.Row{
		idRow(0, 1, noNet),
		idRow(2, 3, 4, 5, noNet),
		idRow(6, 7, 8, 9, 10, 11, noNet),
		idRow(12, 13, 14, 15, 16, 17, 18, 19, noNet),
	})
	if err != nil {
		panic(err)
	}
	quads := [bga.NumSides]*bga.Quadrant{
		bga.Bottom: bq,
		bga.Right:  fillerQuadrant(bga.Right, 20, 4),
		bga.Top:    fillerQuadrant(bga.Top, 24, 4),
		bga.Left:   fillerQuadrant(bga.Left, 28, 4),
	}
	spec := bga.Spec{Name: "fig13", BallDiameter: 0.2, BallSpace: 1.2, ViaDiameter: 0.1,
		FingerWidth: 0.1, FingerHeight: 0.2, FingerSpace: 0.12, Rows: 4}
	pkg, err := bga.NewPackage(spec, quads)
	if err != nil {
		panic(err)
	}
	p, err := core.NewProblem(c, pkg, 1)
	if err != nil {
		panic(err)
	}
	return p
}

// Fig13IFAOrder is the paper's IFA order for Fig 13(A) (density 6), in net
// IDs (paper numbers minus one).
func Fig13IFAOrder() []netlist.ID {
	return paperNums(13, 7, 3, 1, 14, 8, 4, 2, 15, 9, 5, 16, 10, 6, 17, 11, 18, 12, 19, 20)
}

// Fig13DFAOrder is the paper's DFA order for Fig 13(B) (density 5), in net
// IDs.
func Fig13DFAOrder() []netlist.ID {
	return paperNums(13, 7, 3, 14, 1, 4, 8, 15, 9, 5, 2, 16, 10, 17, 6, 11, 18, 12, 19, 20)
}

func paperNums(xs ...int) []netlist.ID {
	out := make([]netlist.ID, len(xs))
	for i, x := range xs {
		out[i] = netlist.ID(x - 1)
	}
	return out
}

// Names maps an order of net IDs to net names, convenient for comparing
// against the orders printed in the paper.
func Names(c *netlist.Circuit, order []netlist.ID) []string {
	out := make([]string, len(order))
	for i, id := range order {
		out[i] = c.Net(id).Name
	}
	return out
}
