package exp

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"copack/internal/assign"
	"copack/internal/core"
	"copack/internal/exchange"
	"copack/internal/gen"
	"copack/internal/parallel"
	"copack/internal/portfolio"
	"copack/internal/power"
	"copack/internal/route"
)

// --- Four-way assignment comparison (Table 2 + MCMF column) ------------------

// CompareRow is one circuit's comparison of the four assignment engines.
type CompareRow struct {
	Circuit                                            string
	RandomDensity, IFADensity, DFADensity, MCMFDensity int
	RandomWirelen, IFAWirelen, DFAWirelen, MCMFWirelen float64
}

// CompareResult extends the Table 2 comparison with the network-flow engine.
type CompareResult struct {
	Rows []CompareRow
	// Average ratios versus the random baseline, as in Table 2's last row.
	AvgDensityIFA, AvgDensityDFA, AvgDensityMCMF float64
	AvgWirelenIFA, AvgWirelenDFA, AvgWirelenMCMF float64
}

// compareRow runs the four engines on one circuit; self-contained like
// table2Row, so rows can complete in any order.
func compareRow(tc gen.TestCircuit, seed int64, randomTries int) (CompareRow, error) {
	var row CompareRow
	p, err := gen.Build(tc, gen.Options{Seed: seed})
	if err != nil {
		return row, err
	}
	rng := rand.New(rand.NewSource(seed))
	randA, randS, err := RandomBaseline(p, rng, randomTries)
	if err != nil {
		return row, err
	}
	ifaA, err := assign.IFA(p)
	if err != nil {
		return row, err
	}
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return row, err
	}
	mcmfA, err := assign.MCMF(p, assign.MCMFOptions{})
	if err != nil {
		return row, err
	}
	wl := func(a *core.Assignment) (float64, error) {
		r, err := route.Realize(p, a)
		if err != nil {
			return 0, err
		}
		return r.TotalLength(), nil
	}
	row = CompareRow{Circuit: tc.Name, RandomDensity: randS.MaxDensity}
	for _, e := range []struct {
		a    *core.Assignment
		dens *int
		wire *float64
	}{
		{ifaA, &row.IFADensity, &row.IFAWirelen},
		{dfaA, &row.DFADensity, &row.DFAWirelen},
		{mcmfA, &row.MCMFDensity, &row.MCMFWirelen},
	} {
		s, err := route.Evaluate(p, e.a)
		if err != nil {
			return row, err
		}
		*e.dens = s.MaxDensity
		if *e.wire, err = wl(e.a); err != nil {
			return row, err
		}
	}
	if row.RandomWirelen, err = wl(randA); err != nil {
		return row, err
	}
	return row, nil
}

// CompareAssignWith compares random, IFA, DFA and MCMF on the test circuits,
// fanned out over the harness pool. Rows land at their circuit's index, so
// the result is identical for any Workers value.
func CompareAssignWith(seed int64, randomTries int, h Harness) (*CompareResult, error) {
	if randomTries < 1 {
		randomTries = 10
	}
	circuits := gen.Table1()
	rows := make([]CompareRow, len(circuits))
	var mu sync.Mutex
	err := parallel.ForEachErr(context.Background(), len(circuits), h.Workers, func(_ context.Context, i int) error {
		row, err := compareRow(circuits[i], seed, randomTries)
		if err != nil {
			return err
		}
		rows[i] = row
		h.progressf(&mu, "compare %s: density %d/%d/%d/%d (random/IFA/DFA/MCMF)",
			row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity, row.MCMFDensity)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &CompareResult{Rows: rows}
	for _, row := range rows {
		rd, rw := float64(row.RandomDensity), row.RandomWirelen
		out.AvgDensityIFA += float64(row.IFADensity) / rd
		out.AvgDensityDFA += float64(row.DFADensity) / rd
		out.AvgDensityMCMF += float64(row.MCMFDensity) / rd
		out.AvgWirelenIFA += row.IFAWirelen / rw
		out.AvgWirelenDFA += row.DFAWirelen / rw
		out.AvgWirelenMCMF += row.MCMFWirelen / rw
	}
	n := float64(len(rows))
	out.AvgDensityIFA /= n
	out.AvgDensityDFA /= n
	out.AvgDensityMCMF /= n
	out.AvgWirelenIFA /= n
	out.AvgWirelenDFA /= n
	out.AvgWirelenMCMF /= n
	return out, nil
}

// CompareAssign is CompareAssignWith run sequentially.
func CompareAssign(seed int64, randomTries int) (*CompareResult, error) {
	return CompareAssignWith(seed, randomTries, Harness{Workers: 1})
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

// warmStartRow runs one (circuit, ψ) instance cold and warm. Self-contained,
// hence order-independent under the harness pool.
func warmStartRow(tc gen.TestCircuit, psi int, seed int64) (WarmStartRow, error) {
	var row WarmStartRow
	p, err := gen.Build(tc, gen.Options{Seed: seed, Tiers: psi})
	if err != nil {
		return row, err
	}
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return row, err
	}
	cold, err := exchange.Run(p, dfaA, exchange.Options{Seed: seed})
	if err != nil {
		return row, err
	}
	warm, err := exchange.Run(p, dfaA, exchange.Options{Seed: seed, Portfolio: &portfolio.Config{
		Budget: 1, Arms: []portfolio.Arm{{Name: "mcmf", Engine: portfolio.EngineMCMF}}}})
	if err != nil {
		return row, err
	}
	g := Table3Grid(p)
	base, err := power.SolveAssignment(p, dfaA, g, power.SolveOptions{})
	if err != nil {
		return row, err
	}
	irPct := func(a *core.Assignment) (float64, error) {
		s, err := power.SolveAssignment(p, a, g, power.SolveOptions{})
		if err != nil {
			return 0, err
		}
		return (base.MaxDrop() - s.MaxDrop()) / base.MaxDrop() * 100, nil
	}
	row = WarmStartRow{
		Circuit: tc.Name, Psi: psi,
		ColdCost: cold.RestartCosts[cold.Restart], WarmCost: warm.RestartCosts[warm.Restart],
		ColdMoves: cold.Stats.Proposed, WarmMoves: warm.Stats.Proposed,
		ColdDensity: cold.After.MaxDensity, WarmDensity: warm.After.MaxDensity,
	}
	if row.ColdIRPct, err = irPct(cold.Assignment); err != nil {
		return row, err
	}
	if row.WarmIRPct, err = irPct(warm.Assignment); err != nil {
		return row, err
	}
	return row, nil
}

// WarmStartWith compares cold and MCMF-warm-started exchange runs over the
// test circuits for ψ ∈ {1, 4}, fanned out over the harness pool.
func WarmStartWith(seed int64, h Harness) (*WarmStartResult, error) {
	type item struct {
		tc  gen.TestCircuit
		psi int
	}
	var items []item
	for _, psi := range []int{1, 4} {
		for _, tc := range gen.Table1() {
			items = append(items, item{tc: tc, psi: psi})
		}
	}
	rows := make([]WarmStartRow, len(items))
	var mu sync.Mutex
	err := parallel.ForEachErr(context.Background(), len(items), h.Workers, func(_ context.Context, i int) error {
		row, err := warmStartRow(items[i].tc, items[i].psi, seed)
		if err != nil {
			return err
		}
		rows[i] = row
		h.progressf(&mu, "warmstart %s ψ=%d: cost cold %.4f warm %.4f",
			row.Circuit, row.Psi, row.ColdCost, row.WarmCost)
		return nil
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

// WarmStart is WarmStartWith run sequentially.
func WarmStart(seed int64) (*WarmStartResult, error) {
	return WarmStartWith(seed, Harness{Workers: 1})
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
