package exp

import (
	"context"
	"fmt"
	"strings"

	"copack/internal/assign"
	"copack/internal/exchange"
	"copack/internal/gen"
	"copack/internal/obs"
	"copack/internal/route"
)

// --- Four-way assignment comparison (Table 2 + MCMF column) ------------------

// CompareRow is one circuit's comparison of the four assignment engines:
// Table 2's row plus the MCMF columns.
type CompareRow struct {
	Table2Row
	MCMFDensity int
	MCMFWirelen float64
}

// CompareResult extends the Table 2 comparison with the network-flow engine.
type CompareResult struct {
	Rows []CompareRow
	// Average ratios versus the random baseline, as in Table 2's last row.
	AvgDensityIFA, AvgDensityDFA, AvgDensityMCMF float64
	AvgWirelenIFA, AvgWirelenDFA, AvgWirelenMCMF float64
}

// CompareAssign compares random, IFA, DFA and MCMF on the test circuits,
// one circuit per work unit. The random, IFA and DFA columns and their
// averages are Table 2's, computed by the same code.
func CompareAssign(seed int64, randomTries int, h Harness) (*CompareResult, error) {
	circuits := gen.Table1()
	rows, _, err := fanOut(context.Background(), h, len(circuits), func(i int) (CompareRow, error) {
		p, err := gen.Build(circuits[i], gen.Options{Seed: seed})
		if err != nil {
			return CompareRow{}, err
		}
		row, _, err := table2Row(p, circuits[i].Name, seed, randomTries)
		if err != nil {
			return CompareRow{}, err
		}
		a, err := assign.MCMF(p)
		if err != nil {
			return CompareRow{}, err
		}
		r, err := route.Realize(p, a)
		if err != nil {
			return CompareRow{}, err
		}
		return CompareRow{Table2Row: row, MCMFDensity: r.Stats.MaxDensity, MCMFWirelen: r.TotalLength()}, nil
	}, func(_, _ int, row CompareRow) string {
		return fmt.Sprintf("compare %s: density %d/%d/%d/%d (random/IFA/DFA/MCMF)",
			row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity, row.MCMFDensity)
	})
	if err != nil {
		return nil, err
	}
	t2 := Table2Result{Rows: make([]Table2Row, len(rows))}
	for i, row := range rows {
		t2.Rows[i] = row.Table2Row
	}
	t2.average()
	out := &CompareResult{Rows: rows,
		AvgDensityIFA: t2.AvgDensityIFA, AvgDensityDFA: t2.AvgDensityDFA,
		AvgWirelenIFA: t2.AvgWirelenIFA, AvgWirelenDFA: t2.AvgWirelenDFA}
	for _, row := range rows {
		out.AvgDensityMCMF += float64(row.MCMFDensity) / float64(row.RandomDensity)
		out.AvgWirelenMCMF += row.MCMFWirelen / row.RandomWirelen
	}
	out.AvgDensityMCMF /= float64(len(rows))
	out.AvgWirelenMCMF /= float64(len(rows))
	return out, nil
}

// Format renders the comparison in Table 2's layout plus the MCMF columns.
func (r *CompareResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s | %6s %5s %5s %5s | %10s %10s %10s %10s\n",
		"circuit", "random", "IFA", "DFA", "MCMF", "randomWL", "ifaWL", "dfaWL", "mcmfWL")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s | %6d %5d %5d %5d | %10.0f %10.0f %10.0f %10.0f\n",
			row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity, row.MCMFDensity,
			row.RandomWirelen, row.IFAWirelen, row.DFAWirelen, row.MCMFWirelen)
	}
	fmt.Fprintf(&b, "%-10s | %6.2f %5.2f %5.2f %5.2f | %10.2f %10.2f %10.2f %10.2f\n",
		"avg ratio", 1.0, r.AvgDensityIFA, r.AvgDensityDFA, r.AvgDensityMCMF,
		1.0, r.AvgWirelenIFA, r.AvgWirelenDFA, r.AvgWirelenMCMF)
	return b.String()
}

// --- Restart policy (one cold pull vs the multi-restart start rule) ---------

// PolicyRestarts is the restart count the restart-policy table runs the
// exchange's multi-restart start rule at.
const PolicyRestarts = 8

// PolicyRun is one exchange run of a restart-policy cell, measured on the
// paper's metrics. The fields are floats so that a ψ's mean has the same
// shape.
type PolicyRun struct {
	// DensityGrowth is the max package density after the exchange minus
	// the DFA order's.
	DensityGrowth float64
	// IRPct is the solved IR-drop improvement over the DFA order on Table
	// 3's grid, in percent.
	IRPct float64
	// BondPct is the bonding improvement, Δω over the net count, in
	// percent (0 at ψ = 1).
	BondPct float64
	// Cost is the winning restart's final Eq 3 cost against the DFA
	// baseline.
	Cost float64
	// Moves is the proposed moves summed over every restart.
	Moves float64
}

func (r *PolicyRun) add(x PolicyRun) {
	r.DensityGrowth += x.DensityGrowth
	r.IRPct += x.IRPct
	r.BondPct += x.BondPct
	r.Cost += x.Cost
	r.Moves += x.Moves
}

func (r *PolicyRun) div(n float64) {
	r.DensityGrowth /= n
	r.IRPct /= n
	r.BondPct /= n
	r.Cost /= n
	r.Moves /= n
}

// PolicyRow is one (ψ, circuit, seed) cell of the restart-policy table:
// the paper's one cold pull (Table 3's exchange) against Restarts:
// PolicyRestarts under the exchange's start rule — cold restarts at ψ = 1,
// warm ones at ψ ≥ 2 (see exchange.Options.Restarts) — both from the DFA
// order.
type PolicyRow struct {
	Circuit    string
	Psi        int
	Seed       int64
	Cold, Rule PolicyRun
}

// PolicyMean averages one ψ's cells.
type PolicyMean struct {
	Psi, Cells int
	Cold, Rule PolicyRun
}

// PolicyResult is the restart-policy table: its cells ψ-major, then by
// circuit, then by seed, and one mean per ψ.
type PolicyResult struct {
	Rows  []PolicyRow
	Means []PolicyMean
}

// policyPsis are the tier counts of the restart-policy table.
var policyPsis = []int{1, 2, 3, 4}

// policyCell is one cell's row and the rule run it measured.
type policyCell struct {
	row  PolicyRow
	rule *exchange.Result
}

// runPolicyCell runs Table 3's instance for (it, seed), then the start
// rule from the same DFA order. The rule's moves over all its restarts
// come from the exchange's per-restart telemetry.
func runPolicyCell(it table3Item, seed int64) (policyCell, error) {
	in, err := runInstance(it, seed)
	if err != nil {
		return policyCell{}, err
	}
	col := obs.NewCollector()
	rule, err := exchange.Run(in.p, in.dfa, exchange.Options{Seed: seed, Restarts: PolicyRestarts, Recorder: col})
	if err != nil {
		return policyCell{}, err
	}
	moves := 0
	snap := col.Snapshot()
	for k := range rule.RestartCosts {
		moves += int(snap.Counters[fmt.Sprintf("exchange/restart%d/moves_priced", k)])
	}
	c := policyCell{row: PolicyRow{Circuit: it.tc.Name, Psi: it.psi, Seed: seed}, rule: rule}
	if c.row.Cold, err = in.policyRun(in.cold, in.cold.Stats.Proposed); err != nil {
		return policyCell{}, err
	}
	if c.row.Rule, err = in.policyRun(rule, moves); err != nil {
		return policyCell{}, err
	}
	return c, nil
}

// policyRun measures one exchange result of the instance.
func (in *instance) policyRun(res *exchange.Result, moves int) (PolicyRun, error) {
	ir, err := in.irPct(res.Assignment)
	if err != nil {
		return PolicyRun{}, err
	}
	r := PolicyRun{
		DensityGrowth: float64(res.After.MaxDensity - res.Before.MaxDensity),
		IRPct:         ir,
		Cost:          res.RestartCosts[res.Restart],
		Moves:         float64(moves),
	}
	if in.p.Tiers > 1 {
		r.BondPct = float64(res.Before.Omega-res.After.Omega) / float64(in.p.Circuit.NumNets()) * 100
	}
	return r, nil
}

// policyCells runs every cell of the restart-policy table for seeds, one
// cell per work unit, in the table's row order.
func policyCells(seeds []int64, h Harness) ([]policyCell, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("exp: restart policy needs at least one seed")
	}
	var items []table3Item
	for _, psi := range policyPsis {
		for _, tc := range gen.Table1() {
			items = append(items, table3Item{tc: tc, psi: psi})
		}
	}
	cells, _, err := fanOut(context.Background(), h, len(items)*len(seeds), func(i int) (policyCell, error) {
		return runPolicyCell(items[i/len(seeds)], seeds[i%len(seeds)])
	}, func(_, _ int, c policyCell) string {
		return fmt.Sprintf("policy %s ψ=%d seed %d: Eq 3 cold %.4f rule %.4f",
			c.row.Circuit, c.row.Psi, c.row.Seed, c.row.Cold.Cost, c.row.Rule.Cost)
	})
	return cells, err
}

// RestartPolicy compares, on every Table 1 circuit at ψ = 1…4 for each
// seed, the paper's one cold pull against the exchange's multi-restart
// start rule at PolicyRestarts restarts, and averages each ψ.
func RestartPolicy(seeds []int64, h Harness) (*PolicyResult, error) {
	cells, err := policyCells(seeds, h)
	if err != nil {
		return nil, err
	}
	rows := make([]PolicyRow, len(cells))
	for i, c := range cells {
		rows[i] = c.row
	}
	return newPolicyResult(rows), nil
}

// newPolicyResult averages rows per ψ, summing in row order.
func newPolicyResult(rows []PolicyRow) *PolicyResult {
	out := &PolicyResult{Rows: rows}
	for _, psi := range policyPsis {
		m := PolicyMean{Psi: psi}
		for _, row := range rows {
			if row.Psi == psi {
				m.Cells++
				m.Cold.add(row.Cold)
				m.Rule.add(row.Rule)
			}
		}
		if m.Cells > 0 {
			m.Cold.div(float64(m.Cells))
			m.Rule.div(float64(m.Cells))
			out.Means = append(out.Means, m)
		}
	}
	return out
}

// Format renders the restart-policy table: each cell, then each ψ's mean,
// with the cold pull's and the rule's value side by side per metric.
func (r *PolicyResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %3s %4s | %6s %6s | %6s %6s | %6s %6s | %8s %8s | %8s %8s\n",
		"circuit", "psi", "seed", "dCold", "dRule", "irCold", "irRule", "bdCold", "bdRule",
		"eq3Cold", "eq3Rule", "mvCold", "mvRule")
	line := func(name string, psi int, seed string, cold, rule PolicyRun) {
		fmt.Fprintf(&b, "%-10s %3d %4s | %6.2f %6.2f | %6.2f %6.2f | %6.2f %6.2f | %8.4f %8.4f | %8.0f %8.0f\n",
			name, psi, seed, cold.DensityGrowth, rule.DensityGrowth, cold.IRPct, rule.IRPct,
			cold.BondPct, rule.BondPct, cold.Cost, rule.Cost, cold.Moves, rule.Moves)
	}
	for _, row := range r.Rows {
		line(row.Circuit, row.Psi, fmt.Sprint(row.Seed), row.Cold, row.Rule)
	}
	for _, m := range r.Means {
		line("mean", m.Psi, fmt.Sprintf("n%d", m.Cells), m.Cold, m.Rule)
	}
	return b.String()
}
