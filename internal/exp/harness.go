package exp

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

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
	// Workers bounds the concurrency of the experiment's independent work
	// units (circuits, (ψ, circuit) instances, seeds). 0 means one per CPU;
	// 1 runs sequentially.
	Workers int
	// Progress, when non-nil, receives one line per completed work unit.
	// Calls are serialized; completion order (not line content) may vary
	// with Workers.
	Progress func(line string)
}

// progressf emits a formatted progress line under the harness's lock.
func (h Harness) progressf(mu *sync.Mutex, format string, args ...any) {
	if h.Progress == nil {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	h.Progress(fmt.Sprintf(format, args...))
}

// table2Row runs Table 2's three methods on one circuit. This is the unit
// of parallelism for Table2; it is self-contained (its rng is seeded
// locally), so rows can run in any order.
func table2Row(tc gen.TestCircuit, seed int64, randomTries int) (Table2Row, error) {
	var row Table2Row
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
	// The paper computes wirelength on the realized routing, where detoured
	// paths cost extra.
	wl := func(a *core.Assignment) (float64, error) {
		r, err := route.Realize(p, a)
		if err != nil {
			return 0, err
		}
		return r.TotalLength(), nil
	}
	ifaS, err := route.Evaluate(p, ifaA)
	if err != nil {
		return row, err
	}
	dfaS, err := route.Evaluate(p, dfaA)
	if err != nil {
		return row, err
	}
	row = Table2Row{Circuit: tc.Name,
		RandomDensity: randS.MaxDensity, IFADensity: ifaS.MaxDensity, DFADensity: dfaS.MaxDensity}
	if row.RandomWirelen, err = wl(randA); err != nil {
		return row, err
	}
	if row.IFAWirelen, err = wl(ifaA); err != nil {
		return row, err
	}
	if row.DFAWirelen, err = wl(dfaA); err != nil {
		return row, err
	}
	return row, nil
}

// Table2 reproduces Table 2: max package density and total routed
// wirelength for the random baseline, IFA and DFA on the five test
// circuits, fanned out over the harness pool. Rows land at their circuit's
// index and ratios are averaged afterwards in that order, so the result is
// identical for any Workers value.
func Table2(seed int64, randomTries int, h Harness) (*Table2Result, error) {
	if randomTries < 1 {
		randomTries = 10
	}
	circuits := gen.Table1()
	rows := make([]Table2Row, len(circuits))
	var mu sync.Mutex
	err := parallel.ForEachErr(context.Background(), len(circuits), h.Workers, func(_ context.Context, i int) error {
		row, err := table2Row(circuits[i], seed, randomTries)
		if err != nil {
			return err
		}
		rows[i] = row
		h.progressf(&mu, "table2 %s: density %d/%d/%d (random/IFA/DFA)",
			row.Circuit, row.RandomDensity, row.IFADensity, row.DFADensity)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &Table2Result{Rows: rows}
	var dIFA, dDFA, wIFA, wDFA float64
	for _, row := range rows {
		dIFA += float64(row.IFADensity) / float64(row.RandomDensity)
		dDFA += float64(row.DFADensity) / float64(row.RandomDensity)
		wIFA += row.IFAWirelen / row.RandomWirelen
		wDFA += row.DFAWirelen / row.RandomWirelen
	}
	n := float64(len(rows))
	out.AvgDensityIFA, out.AvgDensityDFA = dIFA/n, dDFA/n
	out.AvgWirelenIFA, out.AvgWirelenDFA = wIFA/n, wDFA/n
	return out, nil
}

// table3Row runs one (circuit, ψ) instance of Table 3: DFA, exchange, and
// the before/after IR solves. Self-contained, hence order-independent.
func table3Row(tc gen.TestCircuit, psi int, seed int64) (Table3Row, error) {
	var row Table3Row
	p, err := gen.Build(tc, gen.Options{Seed: seed, Tiers: psi})
	if err != nil {
		return row, err
	}
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		return row, err
	}
	res, err := exchange.Run(p, dfaA, exchange.Options{Seed: seed})
	if err != nil {
		return row, err
	}
	g := Table3Grid(p)
	before, err := power.SolveAssignment(p, dfaA, g, power.SolveOptions{})
	if err != nil {
		return row, err
	}
	after, err := power.SolveAssignment(p, res.Assignment, g, power.SolveOptions{})
	if err != nil {
		return row, err
	}
	row = Table3Row{
		Circuit:              tc.Name,
		Psi:                  psi,
		DensityAfterDFA:      res.Before.MaxDensity,
		DensityAfterExchange: res.After.MaxDensity,
		IRImprovedPct:        (before.MaxDrop() - after.MaxDrop()) / before.MaxDrop() * 100,
		OmegaBefore:          res.Before.Omega,
		OmegaAfter:           res.After.Omega,
	}
	if psi > 1 {
		row.BondImprovedPct = float64(row.OmegaBefore-row.OmegaAfter) / float64(p.Circuit.NumNets()) * 100
	}
	return row, nil
}

// Table3 reproduces Table 3: for every test circuit and ψ ∈ {1, 4}, run
// DFA, then the finger/pad exchange, and report the density before/after,
// the solved IR-drop improvement and (for ψ=4) the bonding improvement.
// The ten (ψ, circuit) instances fan out over the harness pool; averages
// are recomputed from the index-ordered rows, so the result is identical
// for any Workers value.
func Table3(seed int64, h Harness) (*Table3Result, error) {
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
	rows := make([]Table3Row, len(items))
	var mu sync.Mutex
	err := parallel.ForEachErr(context.Background(), len(items), h.Workers, func(_ context.Context, i int) error {
		row, err := table3Row(items[i].tc, items[i].psi, seed)
		if err != nil {
			return err
		}
		rows[i] = row
		h.progressf(&mu, "table3 %s ψ=%d: IR improved %.2f%%", row.Circuit, row.Psi, row.IRImprovedPct)
		return nil
	})
	if err != nil {
		return nil, err
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

// SweepTable2 runs Table 2 for every seed and aggregates the ratios, with
// the seeds fanned out over the harness pool. Each seed's Table 2 runs
// sequentially inside its worker (nested pools would oversubscribe), and
// the aggregation walks the results in seed order, so the summary is
// identical for any Workers value.
//
// A cancelled ctx stops scheduling new seeds and the call returns the
// context error. The progress stream is flushed on that path — a final
// tick reports how many seeds completed before the stop, so a consumer
// tailing the stream never sees it end silently mid-sweep.
func SweepTable2(ctx context.Context, seeds []int64, randomTries int, h Harness) (*SweepResult, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one seed")
	}
	results := make([]*Table2Result, len(seeds))
	var mu sync.Mutex
	var done atomic.Int64
	err := parallel.ForEachErr(ctx, len(seeds), h.Workers, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := Table2(seeds[i], randomTries, Harness{Workers: 1})
		if err != nil {
			return err
		}
		results[i] = res
		h.progressf(&mu, "sweep seed %d done (%d/%d)", seeds[i], done.Add(1), len(seeds))
		return nil
	})
	if err != nil {
		h.progressf(&mu, "sweep stopped: %v (%d/%d seeds done)", err, done.Load(), len(seeds))
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
// SweepTable2 for the determinism argument and the cancellation flush.
func SweepTable3(ctx context.Context, seeds []int64, h Harness) (*Sweep3Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("exp: sweep needs at least one seed")
	}
	results := make([]*Table3Result, len(seeds))
	var mu sync.Mutex
	var done atomic.Int64
	err := parallel.ForEachErr(ctx, len(seeds), h.Workers, func(ctx context.Context, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, err := Table3(seeds[i], Harness{Workers: 1})
		if err != nil {
			return err
		}
		results[i] = res
		h.progressf(&mu, "sweep3 seed %d done (%d/%d)", seeds[i], done.Add(1), len(seeds))
		return nil
	})
	if err != nil {
		h.progressf(&mu, "sweep3 stopped: %v (%d/%d seeds done)", err, done.Load(), len(seeds))
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
