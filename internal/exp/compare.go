package exp

import (
	"context"
	"fmt"
	"strings"

	"copack/internal/assign"
	"copack/internal/exchange"
	"copack/internal/gen"
	"copack/internal/portfolio"
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
		a, err := assign.MCMF(p, assign.MCMFOptions{})
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

// --- Warm-start comparison (Table 3 + MCMF-seeded exchange) ------------------

// WarmStartRow compares, for one (circuit, ψ) instance, the exchange run
// cold (annealing from the DFA order) against the run warm-started from the
// MCMF order. Both runs share the DFA order as the Eq 3 baseline, so their
// costs are directly comparable.
type WarmStartRow struct {
	Circuit string
	Psi     int
	// ColdCost and WarmCost are the runs' final Eq 3 costs against the
	// shared DFA baseline (Result.RestartCosts of the winning restart).
	ColdCost, WarmCost float64
	// ColdMoves and WarmMoves count the winning anneal's proposed moves.
	ColdMoves, WarmMoves int
	// ColdDensity and WarmDensity are the final max package densities.
	ColdDensity, WarmDensity int
	// ColdIRPct and WarmIRPct are the solved IR-drop improvements versus
	// the DFA order, as in Table 3.
	ColdIRPct, WarmIRPct float64
}

// WarmStartResult is the full warm-start comparison.
type WarmStartResult struct {
	Rows []WarmStartRow
	// AvgCostDelta is the mean of (warm − cold) final cost: negative means
	// the flow warm start ends in a better Eq 3 state for the same anneal
	// budget.
	AvgCostDelta float64
}

// warmStartRow runs one (ψ, circuit) instance of Table 3 and, from the
// same DFA order, the MCMF-warm-started exchange.
func warmStartRow(it table3Item, seed int64) (WarmStartRow, error) {
	in, err := runInstance(it, seed)
	if err != nil {
		return WarmStartRow{}, err
	}
	warm, err := exchange.Run(in.p, in.dfa, exchange.Options{Seed: seed, Portfolio: &portfolio.Config{
		Budget: 1, Arms: []portfolio.Arm{{Name: "mcmf", Engine: portfolio.EngineMCMF}}}})
	if err != nil {
		return WarmStartRow{}, err
	}
	cold := in.cold
	row := WarmStartRow{
		Circuit: it.tc.Name, Psi: it.psi,
		ColdCost: cold.RestartCosts[cold.Restart], WarmCost: warm.RestartCosts[warm.Restart],
		ColdMoves: cold.Stats.Proposed, WarmMoves: warm.Stats.Proposed,
		ColdDensity: cold.After.MaxDensity, WarmDensity: warm.After.MaxDensity,
	}
	if row.ColdIRPct, err = in.irPct(cold.Assignment); err != nil {
		return WarmStartRow{}, err
	}
	if row.WarmIRPct, err = in.irPct(warm.Assignment); err != nil {
		return WarmStartRow{}, err
	}
	return row, nil
}

// WarmStart compares cold and MCMF-warm-started exchange runs over Table
// 3's (ψ, circuit) instances, one instance per work unit.
func WarmStart(seed int64, h Harness) (*WarmStartResult, error) {
	items := table3Items()
	rows, _, err := fanOut(context.Background(), h, len(items), func(i int) (WarmStartRow, error) {
		return warmStartRow(items[i], seed)
	}, func(_, _ int, row WarmStartRow) string {
		return fmt.Sprintf("warmstart %s ψ=%d: cost cold %.4f warm %.4f",
			row.Circuit, row.Psi, row.ColdCost, row.WarmCost)
	})
	if err != nil {
		return nil, err
	}
	out := &WarmStartResult{Rows: rows}
	for _, row := range rows {
		out.AvgCostDelta += row.WarmCost - row.ColdCost
	}
	out.AvgCostDelta /= float64(len(rows))
	return out, nil
}

// Format renders the warm-start comparison.
func (r *WarmStartResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s | %9s %9s | %8s %8s | %5s %5s | %8s %8s\n",
		"circuit", "psi", "coldCost", "warmCost", "coldMv", "warmMv", "coldD", "warmD", "coldIR%", "warmIR%")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %4d | %9.4f %9.4f | %8d %8d | %5d %5d | %8.2f %8.2f\n",
			row.Circuit, row.Psi, row.ColdCost, row.WarmCost,
			row.ColdMoves, row.WarmMoves, row.ColdDensity, row.WarmDensity,
			row.ColdIRPct, row.WarmIRPct)
	}
	fmt.Fprintf(&b, "avg cost delta (warm - cold): %+.4f\n", r.AvgCostDelta)
	return b.String()
}
