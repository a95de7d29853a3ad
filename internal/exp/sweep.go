package exp

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// The paper evaluates one instance per circuit. Because our instances are
// regenerated from seeds, we can do better: Sweep repeats Table 2's
// comparison over many seeds and reports means and standard deviations of
// the density and wirelength ratios, showing that the paper's conclusions
// are not an artifact of one lucky net-to-ball mapping.

// Dist summarizes a sample.
type Dist struct {
	Mean, Std, Min, Max float64
	N                   int
}

// NewDist computes a summary (population standard deviation).
func NewDist(xs []float64) Dist {
	d := Dist{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	if d.N == 0 {
		d.Min, d.Max = 0, 0
		return d
	}
	for _, x := range xs {
		d.Mean += x
		d.Min = math.Min(d.Min, x)
		d.Max = math.Max(d.Max, x)
	}
	d.Mean /= float64(d.N)
	for _, x := range xs {
		d.Std += (x - d.Mean) * (x - d.Mean)
	}
	d.Std = math.Sqrt(d.Std / float64(d.N))
	return d
}

// String renders the summary as "mean ± std [min, max] (n=…)".
func (d Dist) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f] (n=%d)", d.Mean, d.Std, d.Min, d.Max, d.N)
}

// SweepResult aggregates Table 2 over seeds.
type SweepResult struct {
	Seeds []int64
	// Ratios of IFA and DFA versus the random baseline, pooled over all
	// circuits and seeds.
	DensityIFA, DensityDFA Dist
	WirelenIFA, WirelenDFA Dist
	// PerCircuitDensityDFA maps circuit name to its DFA density ratio
	// distribution.
	PerCircuitDensityDFA map[string]Dist
}

// Format renders the sweep summary.
func (r *SweepResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table 2 over %d seeds (ratios vs random baseline; paper: 0.63/0.36 density, 0.88/0.82 WL)\n", len(r.Seeds))
	fmt.Fprintf(&b, "  density IFA : %v\n", r.DensityIFA)
	fmt.Fprintf(&b, "  density DFA : %v\n", r.DensityDFA)
	fmt.Fprintf(&b, "  wirelen IFA : %v\n", r.WirelenIFA)
	fmt.Fprintf(&b, "  wirelen DFA : %v\n", r.WirelenDFA)
	names := make([]string, 0, len(r.PerCircuitDensityDFA))
	for name := range r.PerCircuitDensityDFA {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "  %s density DFA: %v\n", name, r.PerCircuitDensityDFA[name])
	}
	return b.String()
}

// Seeds is a convenience for 1..n.
func Seeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// Sweep3Result aggregates Table 3 over seeds.
type Sweep3Result struct {
	Seeds []int64
	// IR improvement percentages pooled over circuits, per ψ.
	IRPct map[int]Dist
	// Bonding improvement percentages (ψ=4 rows).
	BondPct Dist
	// Density growth (after − before) pooled over all rows.
	DensityGrowth Dist
}

// Format renders the Table 3 sweep summary.
func (r *Sweep3Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table 3 over %d seeds (paper: IR 10.61%% @ψ=1, 4.58%% @ψ=4, bonding 15.66%%)\n", len(r.Seeds))
	for _, psi := range []int{1, 4} {
		if d, ok := r.IRPct[psi]; ok {
			fmt.Fprintf(&b, "  IR improvement %%  (ψ=%d): %v\n", psi, d)
		}
	}
	fmt.Fprintf(&b, "  bonding improvement %%   : %v\n", r.BondPct)
	fmt.Fprintf(&b, "  density growth (units)  : %v\n", r.DensityGrowth)
	return b.String()
}
