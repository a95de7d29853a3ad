package exp

import (
	"fmt"
	"strings"

	"copack/internal/power"
)

// FlipChipRow compares wire-bond (boundary ring) and flip-chip (area
// array) supply delivery at one pad count.
type FlipChipRow struct {
	Pads                   int
	RingDrop, FlipChipDrop float64 // volts
}

// Advantage returns the flip-chip improvement in percent.
func (r FlipChipRow) Advantage() float64 {
	return (r.RingDrop - r.FlipChipDrop) / r.RingDrop * 100
}

// FlipChipResult quantifies the paper's §2.4 motivation ("the IR-drop
// problem of a wire-bond package is worse than a flip-chip package") on
// the Eq (1) grid model.
type FlipChipResult struct {
	Rows []FlipChipRow
}

// FlipChip sweeps pad counts on a default chip grid and solves both pad
// styles.
func FlipChip(padCounts []int) (*FlipChipResult, error) {
	if len(padCounts) == 0 {
		padCounts = []int{4, 8, 16, 32, 64}
	}
	g := power.GridSpec{
		Nx: 41, Ny: 41,
		Width: 100, Height: 100,
		RsX: 0.5, RsY: 0.5,
		Vdd:            1.0,
		CurrentDensity: 0.35 / (100 * 100),
	}
	out := &FlipChipResult{}
	for _, n := range padCounts {
		ring, err := power.Solve(g, power.RingPads(g, n), power.SolveOptions{})
		if err != nil {
			return nil, err
		}
		fc, err := power.Solve(g, power.FlipChipPads(g, n), power.SolveOptions{})
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, FlipChipRow{
			Pads: n, RingDrop: ring.MaxDrop(), FlipChipDrop: fc.MaxDrop(),
		})
	}
	return out, nil
}

// Format renders the comparison.
func (r *FlipChipResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%6s %16s %16s %12s\n", "pads", "wire-bond (mV)", "flip-chip (mV)", "advantage")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%6d %16.2f %16.2f %11.1f%%\n",
			row.Pads, row.RingDrop*1000, row.FlipChipDrop*1000, row.Advantage())
	}
	return b.String()
}
