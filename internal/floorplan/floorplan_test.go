package floorplan

import (
	"testing"

	"copack/internal/geom"
	"copack/internal/power"
)

func demo() *Floorplan {
	return &Floorplan{
		Die:        geom.R(0, 0, 100, 100),
		Background: 0.2,
		Blocks: []Block{
			{Name: "cpu", Rect: geom.R(10, 10, 40, 40), Density: 5},
			{Name: "sram", Rect: geom.R(60, 60, 90, 90), Density: 2},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := demo().Validate(); err != nil {
		t.Fatalf("valid floorplan rejected: %v", err)
	}
	bad := []*Floorplan{
		{Die: geom.R(0, 0, 0, 100)},
		{Die: geom.R(0, 0, 100, 100), Background: -1},
		{Die: geom.R(0, 0, 100, 100), Blocks: []Block{{Name: "x", Rect: geom.R(0, 0, 10, 10), Density: -2}}},
		{Die: geom.R(0, 0, 100, 100), Blocks: []Block{{Name: "x", Rect: geom.R(5, 5, 5, 9), Density: 1}}},
		{Die: geom.R(0, 0, 100, 100), Blocks: []Block{{Name: "x", Rect: geom.R(90, 90, 110, 110), Density: 1}}},
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("bad floorplan %d accepted", i)
		}
	}
}

func TestDensityAt(t *testing.T) {
	f := demo()
	if got := f.DensityAt(geom.P(50, 50)); got != 0.2 {
		t.Errorf("background = %v", got)
	}
	if got := f.DensityAt(geom.P(20, 20)); got != 5 {
		t.Errorf("cpu = %v", got)
	}
	if got := f.DensityAt(geom.P(75, 75)); got != 2 {
		t.Errorf("sram = %v", got)
	}
	// Later blocks shadow earlier ones.
	f2 := demo()
	f2.Blocks = append(f2.Blocks, Block{Name: "override", Rect: geom.R(15, 15, 25, 25), Density: 9})
	if got := f2.DensityAt(geom.P(20, 20)); got != 9 {
		t.Errorf("override = %v", got)
	}
}

func TestRasterize(t *testing.T) {
	f := demo()
	cm, err := f.Rasterize(11, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(cm) != 121 {
		t.Fatalf("len = %d", len(cm))
	}
	// Node (2,2) is at (20,20): inside cpu.
	if cm[2*11+2] != 5 {
		t.Errorf("node (2,2) = %v", cm[2*11+2])
	}
	// Node (5,5) is at (50,50): background.
	if cm[5*11+5] != 0.2 {
		t.Errorf("node (5,5) = %v", cm[5*11+5])
	}
	if _, err := f.Rasterize(1, 5); err == nil {
		t.Error("tiny grid accepted")
	}
}

func TestApplyTo(t *testing.T) {
	f := demo()
	g := power.GridSpec{Nx: 21, Ny: 21, Width: 1, Height: 1, RsX: 0.1, RsY: 0.1, Vdd: 1, CurrentDensity: 1e-5}
	if err := f.ApplyTo(&g); err != nil {
		t.Fatal(err)
	}
	if g.Width != 100 || g.Height != 100 {
		t.Errorf("die size not applied: %gx%g", g.Width, g.Height)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("resulting grid invalid: %v", err)
	}
	// Solving with the hot cpu block pulls the worst node toward it.
	pads := []power.Pad{{I: 20, J: 20}} // far corner pad
	sol, err := power.Solve(g, pads, power.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	i, j := sol.WorstNode()
	if i > 12 || j > 12 {
		t.Errorf("worst node (%d,%d) not pulled toward the hot block", i, j)
	}
}
