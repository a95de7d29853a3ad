package svgplot

import (
	"bytes"
	"encoding/xml"
	"strings"
	"testing"

	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/gen"
	"copack/internal/geom"
	"copack/internal/netlist"
	"copack/internal/power"
	"copack/internal/route"
)

func wellFormed(t *testing.T, svg []byte) {
	t.Helper()
	dec := xml.NewDecoder(bytes.NewReader(svg))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed XML: %v\n%s", err, svg[:min(len(svg), 400)])
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestCanvasPrimitives(t *testing.T) {
	c := NewCanvas(100, 100, geom.R(0, 0, 10, 10))
	c.Polyline(geom.Polyline{geom.P(0, 0), geom.P(5, 5), geom.P(10, 0)}, "blue", 2)
	c.Polyline(geom.Polyline{geom.P(1, 1)}, "blue", 2) // degenerate: no output
	c.Circle(geom.P(5, 5), 1, "green")
	c.CellRect(geom.R(2, 2, 4, 4), "#123456")
	c.Text(geom.P(1, 9), 10, "black", "a<b&c>d")
	svg := c.Bytes()
	wellFormed(t, svg)
	for _, want := range []string{"<polyline", "<circle", "<rect", "<text", "a&lt;b&amp;c&gt;d"} {
		if !strings.Contains(string(svg), want) {
			t.Errorf("missing %q in output", want)
		}
	}
}

func TestCanvasFlipsY(t *testing.T) {
	c := NewCanvas(100, 100, geom.R(0, 0, 10, 10))
	// User-space top (y=10) must map to screen y=0.
	_, sy := c.xy(geom.P(0, 10))
	if sy != 0 {
		t.Errorf("top of view maps to screen y=%v, want 0", sy)
	}
	_, sy = c.xy(geom.P(0, 0))
	if sy != 100 {
		t.Errorf("bottom of view maps to screen y=%v, want 100", sy)
	}
}

func TestHeatColorRamp(t *testing.T) {
	if HeatColor(0) != "#0000ff" {
		t.Errorf("cold = %s", HeatColor(0))
	}
	if HeatColor(0.5) != "#00ff00" {
		t.Errorf("mid = %s", HeatColor(0.5))
	}
	if HeatColor(1) != "#ff0000" {
		t.Errorf("hot = %s", HeatColor(1))
	}
	// Out-of-range inputs clamp.
	if HeatColor(-5) != HeatColor(0) || HeatColor(7) != HeatColor(1) {
		t.Error("clamping broken")
	}
}

func TestRoutingPlot(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 2})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.Realize(p, a)
	if err != nil {
		t.Fatal(err)
	}
	svg := Routing(p, r, "circuit1 DFA")
	wellFormed(t, svg)
	s := string(svg)
	if !strings.Contains(s, "circuit1 DFA") {
		t.Error("title missing")
	}
	// One polyline per net (layer 1) plus one per net (layer 2).
	if n := strings.Count(s, "<polyline"); n < 2*p.Circuit.NumNets() {
		t.Errorf("%d polylines for %d nets", n, p.Circuit.NumNets())
	}
	// Supply nets must be visibly distinct.
	if !strings.Contains(s, "#d62728") {
		t.Error("no power-colored wires")
	}
}

func TestIRMapPlot(t *testing.T) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 2})
	var slots [bga.NumSides][]netlist.ID
	for _, side := range bga.Sides() {
		slots[side] = p.Pkg.Quadrant(side).Nets()
	}
	a, err := core.NewAssignment(p, slots)
	if err != nil {
		t.Fatal(err)
	}
	g := power.DefaultChipGrid(p)
	g.Nx, g.Ny = 16, 16
	pads := power.PadsForAssignment(p, a, g)
	sol, err := power.Solve(g, pads, power.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	svg := IRMap(sol, pads, "IR map")
	wellFormed(t, svg)
	s := string(svg)
	if got := strings.Count(s, "<rect"); got < 16*16 {
		t.Errorf("%d cells, want >= 256", got)
	}
	if !strings.Contains(s, "IR map") {
		t.Error("title missing")
	}
}
