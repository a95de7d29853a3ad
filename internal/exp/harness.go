package exp

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"

	"copack/internal/assign"
	"copack/internal/core"
	"copack/internal/exchange"
	"copack/internal/gen"
	"copack/internal/parallel"
	"copack/internal/power"
	"copack/internal/route"
)

// Harness configures how an experiment is executed. It only affects wall
// clock: every experiment is reduced in fixed index order, so its result is
// byte-identical for any Workers value.
type Harness struct {
	// Workers bounds the concurrency of each of the experiment's pools:
	// its independent work units (circuits, (ψ, circuit) instances,
	// seeds) and, in a sweep, each seed's table as well. 0 means one per
	// CPU; 1 runs sequentially.
	Workers int
	// Progress, when non-nil, receives one line per completed work unit.
	// Calls are serialized; completion order (not line content) may vary
	// with Workers.
	Progress func(line string)
}

// fanOut is the one place exp runs work in parallel. It runs unit(i) for
// every i in [0, n) over h's pool and returns the results at their
// indices, so anything reduced from them in index order is identical for
// any Workers value. Each completed unit counts itself and hands
// line(i, done, result) to h.Progress under one lock, so the done counts
// print as 1…n in order. A unit is not started once ctx is cancelled: it
// fails with ctx's error, and done is the number of units that completed.
func fanOut[T any](ctx context.Context, h Harness, n int, unit func(i int) (T, error), line func(i, done int, r T) string) ([]T, int, error) {
	out := make([]T, n)
	var mu sync.Mutex
	done := 0
	err := parallel.ForEachErr(ctx, n, h.Workers, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		r, err := unit(i)
		if err != nil {
			return err
		}
		out[i] = r
		mu.Lock()
		defer mu.Unlock()
		done++
		if h.Progress != nil {
			h.Progress(line(i, done, r))
		}
		return nil
	})
	return out, done, err
}

// table2Row computes one circuit's Table 2 columns on the built problem p:
// the best of tries random orders (10 when tries < 1; the rng is seeded
// locally, so rows can run in any order), IFA and DFA. Each order is
// realized once; the paper computes wirelength on the realized routing,
// where detoured paths cost extra, and the routing's Stats carry the
// order's densities. The three routings (random, IFA, DFA) are returned
// for Fig 15's plots.
func table2Row(p *core.Problem, name string, seed int64, tries int) (Table2Row, [3]*route.Routing, error) {
	var rs [3]*route.Routing
	if tries < 1 {
		tries = 10
	}
	randA, _, err := RandomBaseline(p, rand.New(rand.NewSource(seed)), tries)
	if err != nil {
		return Table2Row{}, rs, err
	}
	ifaA, err := assign.IFA(p)
	if err != nil {
		return Table2Row{}, rs, err
	}
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return Table2Row{}, rs, err
	}
	for k, a := range []*core.Assignment{randA, ifaA, dfaA} {
		if rs[k], err = route.Realize(p, a); err != nil {
			return Table2Row{}, rs, err
		}
	}
	return Table2Row{Circuit: name,
		RandomDensity: rs[0].Stats.MaxDensity, IFADensity: rs[1].Stats.MaxDensity, DFADensity: rs[2].Stats.MaxDensity,
		RandomWirelen: rs[0].TotalLength(), IFAWirelen: rs[1].TotalLength(), DFAWirelen: rs[2].TotalLength(),
	}, rs, nil
}

// Table2 reproduces Table 2: max package density and total routed
// wirelength for the random baseline, IFA and DFA on the five test
// circuits, one circuit per work unit.
func Table2(seed int64, randomTries int, h Harness) (*Table2Result, error) {
	circuits := gen.Table1()
	rows, _, err := fanOut(context.Background(), h, len(circuits), func(i int) (Table2Row, error) {
		p, err := gen.Build(circuits[i], gen.Options{Seed: seed})
		if err != nil {
			return Table2Row{}, err
		}
		row, _, err := table2Row(p, circuits[i].Name, seed, randomTries)
		return row, err
	}, func(_, _ int, row Table2Row) string {
		return fmt.Sprintf("table2 %s: density %d/%d/%d (random/IFA/DFA)",
			row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity)
	})
	if err != nil {
		return nil, err
	}
	out := &Table2Result{Rows: rows}
	out.average()
	return out, nil
}

// average sets Table 2's last row: the IFA and DFA ratios versus the
// random baseline, averaged over the rows in order.
func (r *Table2Result) average() {
	for _, row := range r.Rows {
		r.AvgDensityIFA += float64(row.IFADensity) / float64(row.RandomDensity)
		r.AvgDensityDFA += float64(row.DFADensity) / float64(row.RandomDensity)
		r.AvgWirelenIFA += row.IFAWirelen / row.RandomWirelen
		r.AvgWirelenDFA += row.DFAWirelen / row.RandomWirelen
	}
	n := float64(len(r.Rows))
	r.AvgDensityIFA /= n
	r.AvgDensityDFA /= n
	r.AvgWirelenIFA /= n
	r.AvgWirelenDFA /= n
}

// table3Item is one (ψ, circuit) instance of Table 3.
type table3Item struct {
	tc  gen.TestCircuit
	psi int
}

// table3Items lists Table 3's instances in its row order: every Table 1
// circuit at ψ = 1, then every one at ψ = 4.
func table3Items() []table3Item {
	var items []table3Item
	for _, psi := range []int{1, 4} {
		for _, tc := range gen.Table1() {
			items = append(items, table3Item{tc: tc, psi: psi})
		}
	}
	return items
}

// instance is one Table 3 instance after the paper's flow: DFA, then the
// cold exchange from the DFA order. Self-contained (built from its item
// and seed alone), so instances can run in any order.
type instance struct {
	p    *core.Problem
	dfa  *core.Assignment
	cold *exchange.Result
	grid power.GridSpec
	// base is the DFA order's solved max IR drop on grid, the baseline
	// of every IR improvement.
	base float64
}

// runInstance builds it for seed, runs DFA and the cold exchange, and
// solves the DFA order on Table3Grid.
func runInstance(it table3Item, seed int64) (*instance, error) {
	p, err := gen.Build(it.tc, gen.Options{Seed: seed, Tiers: it.psi})
	if err != nil {
		return nil, err
	}
	dfa, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return nil, err
	}
	cold, err := exchange.Run(p, dfa, exchange.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &instance{p: p, dfa: dfa, cold: cold, grid: Table3Grid(p)}
	base, err := power.SolveAssignment(p, dfa, in.grid, power.SolveOptions{})
	if err != nil {
		return nil, err
	}
	in.base = base.MaxDrop()
	return in, nil
}

// irPct solves a on the instance's grid and returns its IR-drop
// improvement over the DFA order, in percent.
func (in *instance) irPct(a *core.Assignment) (float64, error) {
	s, err := power.SolveAssignment(in.p, a, in.grid, power.SolveOptions{})
	if err != nil {
		return 0, err
	}
	return (in.base - s.MaxDrop()) / in.base * 100, nil
}

// table3Row runs one (ψ, circuit) instance of Table 3.
func table3Row(it table3Item, seed int64) (Table3Row, error) {
	in, err := runInstance(it, seed)
	if err != nil {
		return Table3Row{}, err
	}
	ir, err := in.irPct(in.cold.Assignment)
	if err != nil {
		return Table3Row{}, err
	}
	row := Table3Row{
		Circuit:              it.tc.Name,
		Psi:                  it.psi,
		DensityAfterDFA:      in.cold.Before.MaxDensity,
		DensityAfterExchange: in.cold.After.MaxDensity,
		IRImprovedPct:        ir,
		OmegaBefore:          in.cold.Before.Omega,
		OmegaAfter:           in.cold.After.Omega,
	}
	if it.psi > 1 {
		row.BondImprovedPct = float64(row.OmegaBefore-row.OmegaAfter) / float64(in.p.Circuit.NumNets()) * 100
	}
	return row, nil
}

// Table3 reproduces Table 3: for every test circuit and ψ ∈ {1, 4}, run
// DFA, then the finger/pad exchange, and report the density before/after,
// the solved IR-drop improvement and (for ψ=4) the bonding improvement,
// one (ψ, circuit) instance per work unit. The units are dispatched
// largest first (descending Fingers, ties by row index), so the pool does
// not end on a large instance running alone; each row still lands at its
// index.
func Table3(seed int64, h Harness) (*Table3Result, error) {
	items := table3Items()
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return items[b].tc.Fingers - items[a].tc.Fingers })
	got, _, err := fanOut(context.Background(), h, len(items), func(k int) (Table3Row, error) {
		return table3Row(items[order[k]], seed)
	}, func(_, _ int, row Table3Row) string {
		return fmt.Sprintf("table3 %s ψ=%d: IR improved %.2f%%", row.Circuit, row.Psi, row.IRImprovedPct)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(items))
	for k, i := range order {
		rows[i] = got[k]
	}
	out := &Table3Result{Rows: rows, AvgIRPct: make(map[int]float64)}
	counts := make(map[int]int)
	var bondSum float64
	bondCount := 0
	for _, row := range rows {
		out.AvgIRPct[row.Psi] += row.IRImprovedPct
		counts[row.Psi]++
		if row.Psi > 1 {
			bondSum += row.BondImprovedPct
			bondCount++
		}
	}
	for psi, sum := range out.AvgIRPct {
		out.AvgIRPct[psi] = sum / float64(counts[psi])
	}
	if bondCount > 0 {
		out.AvgBondPct = bondSum / float64(bondCount)
	}
	return out, nil
}

// sweep runs table for every seed, one seed per work unit. Each seed's
// table fans its own rows out again over h.Workers (DESIGN.md, "Nested
// pools"), and results[i] belongs to seeds[i], so a reduction walking them
// in order is identical for any Workers value. name prefixes the progress
// lines.
//
// A cancelled ctx stops scheduling new seeds and the call returns the
// context error. The progress stream is flushed on that path — a final
// tick reports how many seeds completed before the stop, so a consumer
// tailing the stream never sees it end silently mid-sweep.
func sweep[R any](ctx context.Context, name string, seeds []int64, h Harness, table func(seed int64) (R, error)) ([]R, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one seed")
	}
	results, done, err := fanOut(ctx, h, len(seeds), func(i int) (R, error) {
		return table(seeds[i])
	}, func(i, done int, _ R) string {
		return fmt.Sprintf("%s seed %d done (%d/%d)", name, seeds[i], done, len(seeds))
	})
	if err != nil {
		if h.Progress != nil {
			h.Progress(fmt.Sprintf("%s stopped: %v (%d/%d seeds done)", name, err, done, len(seeds)))
		}
		return nil, err
	}
	return results, nil
}

// SweepTable2 runs Table 2 for every seed and aggregates the ratios, with
// the seeds fanned out over the harness pool; see sweep for the
// determinism argument and the cancellation flush.
func SweepTable2(ctx context.Context, seeds []int64, randomTries int, h Harness) (*SweepResult, error) {
	results, err := sweep(ctx, "sweep", seeds, h, func(seed int64) (*Table2Result, error) {
		return Table2(seed, randomTries, Harness{Workers: h.Workers})
	})
	if err != nil {
		return nil, err
	}
	return ReduceSweep2(seeds, results), nil
}

// ReduceSweep2 aggregates per-seed Table 2 results (results[i] belongs to
// seeds[i]) into the sweep summary. The walk is strictly index-ordered —
// seed-major, then row order within each seed — so the summary is a pure
// function of the ordered result slice: it does not matter whether the
// per-seed results were computed sequentially, by a local worker pool, or
// by different nodes of a fleet (internal/sweep reduces shard results
// through this exact function to make fleet size invisible in the body).
func ReduceSweep2(seeds []int64, results []*Table2Result) *SweepResult {
	var dIFA, dDFA, wIFA, wDFA []float64
	perCircuit := make(map[string][]float64)
	for _, res := range results {
		for _, row := range res.Rows {
			rd := float64(row.RandomDensity)
			dIFA = append(dIFA, float64(row.IFADensity)/rd)
			dDFA = append(dDFA, float64(row.DFADensity)/rd)
			wIFA = append(wIFA, row.IFAWirelen/row.RandomWirelen)
			wDFA = append(wDFA, row.DFAWirelen/row.RandomWirelen)
			perCircuit[row.Circuit] = append(perCircuit[row.Circuit], float64(row.DFADensity)/rd)
		}
	}
	out := &SweepResult{
		Seeds:                append([]int64(nil), seeds...),
		DensityIFA:           NewDist(dIFA),
		DensityDFA:           NewDist(dDFA),
		WirelenIFA:           NewDist(wIFA),
		WirelenDFA:           NewDist(wDFA),
		PerCircuitDensityDFA: make(map[string]Dist, len(perCircuit)),
	}
	for name, xs := range perCircuit {
		out.PerCircuitDensityDFA[name] = NewDist(xs)
	}
	return out
}

// SweepTable3 runs Table 3 for every seed and aggregates the
// improvements, with the seeds fanned out over the harness pool; see
// sweep for the determinism argument and the cancellation flush.
func SweepTable3(ctx context.Context, seeds []int64, h Harness) (*Sweep3Result, error) {
	results, err := sweep(ctx, "sweep3", seeds, h, func(seed int64) (*Table3Result, error) {
		return Table3(seed, Harness{Workers: h.Workers})
	})
	if err != nil {
		return nil, err
	}
	return ReduceSweep3(seeds, results), nil
}

// ReduceSweep3 aggregates per-seed Table 3 results in strict index order;
// see ReduceSweep2 for why the ordering makes the reduction placement- and
// schedule-independent.
func ReduceSweep3(seeds []int64, results []*Table3Result) *Sweep3Result {
	ir := map[int][]float64{}
	var bond, growth []float64
	for _, res := range results {
		for _, row := range res.Rows {
			ir[row.Psi] = append(ir[row.Psi], row.IRImprovedPct)
			growth = append(growth, float64(row.DensityAfterExchange-row.DensityAfterDFA))
			if row.Psi > 1 {
				bond = append(bond, row.BondImprovedPct)
			}
		}
	}
	out := &Sweep3Result{Seeds: append([]int64(nil), seeds...), IRPct: map[int]Dist{}}
	for psi, xs := range ir {
		out.IRPct[psi] = NewDist(xs)
	}
	out.BondPct = NewDist(bond)
	out.DensityGrowth = NewDist(growth)
	return out
}
