// Package floorplan models the chip-side information the paper's future
// work ("a concurrent process for floorplan and package problems", citing
// the authors' own I/O-planning paper [13]) needs: a die with placed blocks
// whose power densities shape the core's current map. Rasterizing a
// floorplan onto the power grid turns the uniform-J0 model of Eq (1) into a
// hot-spot-aware one, which is what makes the Fig 6 experiment meaningful.
package floorplan

import (
	"fmt"

	"copack/internal/geom"
	"copack/internal/power"
)

// Block is a placed macro with a relative power density (1 = nominal).
type Block struct {
	Name string
	Rect geom.Rect
	// Density scales the local current draw relative to CurrentDensity.
	Density float64
}

// Floorplan is a die outline with placed blocks. Nodes outside every block
// draw Background; a node inside a block draws the block's density (blocks
// later in the list shadow earlier ones, so overlaps are resolved by
// order — the convention of most floorplan file formats).
type Floorplan struct {
	Die        geom.Rect
	Background float64
	Blocks     []Block
}

// Validate checks the floorplan's invariants.
func (f *Floorplan) Validate() error {
	if f.Die.W() <= 0 || f.Die.H() <= 0 {
		return fmt.Errorf("floorplan: empty die %v", f.Die)
	}
	if f.Background < 0 {
		return fmt.Errorf("floorplan: negative background density %g", f.Background)
	}
	for _, b := range f.Blocks {
		if b.Density < 0 {
			return fmt.Errorf("floorplan: block %q has negative density", b.Name)
		}
		if b.Rect.W() <= 0 || b.Rect.H() <= 0 {
			return fmt.Errorf("floorplan: block %q is degenerate (%v)", b.Name, b.Rect)
		}
		if !f.Die.Contains(b.Rect.Min) || !f.Die.Contains(b.Rect.Max) {
			return fmt.Errorf("floorplan: block %q (%v) outside die %v", b.Name, b.Rect, f.Die)
		}
	}
	return nil
}

// DensityAt returns the relative density at a die point.
func (f *Floorplan) DensityAt(p geom.Pt) float64 {
	d := f.Background
	for _, b := range f.Blocks {
		if b.Rect.Contains(p) {
			d = b.Density
		}
	}
	return d
}

// Rasterize samples the floorplan at the node centers of an nx×ny grid
// spanning the die and returns a power.GridSpec-compatible current map.
func (f *Floorplan) Rasterize(nx, ny int) ([]float64, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if nx < 2 || ny < 2 {
		return nil, fmt.Errorf("floorplan: grid %dx%d too small", nx, ny)
	}
	dx := f.Die.W() / float64(nx-1)
	dy := f.Die.H() / float64(ny-1)
	out := make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			p := geom.P(f.Die.Min.X+float64(i)*dx, f.Die.Min.Y+float64(j)*dy)
			out[j*nx+i] = f.DensityAt(p)
		}
	}
	return out, nil
}

// ApplyTo rasterizes the floorplan onto a grid spec's current map. The
// spec's Width/Height are aligned to the die.
func (f *Floorplan) ApplyTo(g *power.GridSpec) error {
	cm, err := f.Rasterize(g.Nx, g.Ny)
	if err != nil {
		return err
	}
	g.Width, g.Height = f.Die.W(), f.Die.H()
	g.CurrentMap = cm
	return nil
}
