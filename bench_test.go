// Benchmarks regenerating the paper's evaluation (one benchmark per table
// and figure — see DESIGN.md's per-experiment index) plus microbenchmarks
// of the kernels they exercise. Run:
//
//	go test -bench=. -benchmem
package copack_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"copack"
	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/exchange"
	"copack/internal/exp"
	"copack/internal/gen"
	"copack/internal/power"
	"copack/internal/route"
)

// BenchmarkTable1 builds all five test-circuit instances.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, tc := range gen.Table1() {
			if _, err := gen.Build(tc, gen.Options{Seed: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable2 regenerates the full density/wirelength comparison.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Table2(1, 10, exp.Harness{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.AvgDensityDFA >= res.AvgDensityIFA {
			b.Fatal("density ratios out of order")
		}
	}
}

// BenchmarkTable3 regenerates the exchange experiment, one sub-benchmark
// per circuit and tier count (the annealer dominates).
func BenchmarkTable3(b *testing.B) {
	for _, psi := range []int{1, 4} {
		for _, tc := range gen.Table1() {
			b.Run(fmt.Sprintf("%s/psi%d", tc.Name, psi), func(b *testing.B) {
				p := gen.MustBuild(tc, gen.Options{Seed: 1, Tiers: psi})
				dfaA, err := assign.DFA(p, assign.DFAOptions{})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := exchange.Run(p, dfaA, exchange.Options{Seed: 1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5 evaluates the worked example's three orders.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := exp.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if f.Random != 4 || f.DFA != 2 {
			b.Fatalf("fig5 densities drifted: %+v", f)
		}
	}
}

// BenchmarkFig6 regenerates the IR-drop pad-plan comparison (quick mode;
// the full-fidelity run is `fpbench -fig 6`).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.Fig6(1, true)
		if err != nil {
			b.Fatal(err)
		}
		if !(res.Drop["random"] > res.Drop["regular"] && res.Drop["regular"] > res.Drop["proposed"]) {
			b.Fatal("fig6 ordering drifted")
		}
	}
}

// BenchmarkFig13 evaluates the 20-net example.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := exp.Fig13()
		if err != nil {
			b.Fatal(err)
		}
		if f.IFA != 6 {
			b.Fatalf("fig13 IFA density drifted: %+v", f)
		}
	}
}

// BenchmarkFig15 realizes and renders the circuit-2 routing plots.
func BenchmarkFig15(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig15(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Kernel microbenchmarks ----------------------------------------------

func benchProblem(b *testing.B, idx int) *copack.Problem {
	b.Helper()
	p := gen.MustBuild(gen.Table1()[idx], gen.Options{Seed: 1})
	return p
}

// BenchmarkAssign measures the four assignment algorithms on the largest
// circuit (448 fingers).
func BenchmarkAssign(b *testing.B) {
	p := benchProblem(b, 4)
	b.Run("ifa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assign.IFA(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dfa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assign.DFA(p, assign.DFAOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("random", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			if _, err := assign.Random(p, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mcmf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := assign.MCMF(p, assign.MCMFOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouteEvaluate measures the density model.
func BenchmarkRouteEvaluate(b *testing.B) {
	p := benchProblem(b, 4)
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Evaluate(p, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteRealize measures full wire-geometry production.
func BenchmarkRouteRealize(b *testing.B) {
	p := benchProblem(b, 4)
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := route.Realize(p, a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPowerSolve measures the IR-drop solver on the default 49×49
// chip grid (MGCG) and on the even 48×48 grid, where it falls back to
// Jacobi CG.
func BenchmarkPowerSolve(b *testing.B) {
	p := benchProblem(b, 0)
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{49, 48} {
		g := power.DefaultChipGrid(p)
		g.Nx, g.Ny = n, n
		pads := power.PadsForAssignment(p, a, g)
		b.Run(fmt.Sprintf("%dx%d", n, n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := power.Solve(g, pads, power.SolveOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProxy measures the compact IR estimate the annealer calls twice
// per move.
func BenchmarkProxy(b *testing.B) {
	p := benchProblem(b, 4)
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		power.ProxyForAssignment(p, a)
	}
}

// BenchmarkMonotonicCheck measures the legality verifier.
func BenchmarkMonotonicCheck(b *testing.B) {
	p := benchProblem(b, 4)
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := copack.CheckMonotonic(p, a); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) -----------

// BenchmarkAblationExchange compares exchange variants on circuit 3:
// the paper's literal top-line-only Eq 2 versus the all-lines default, and
// the range constraint on versus off. The reported metric of interest is
// printed once per variant (density after exchange / legality).
func BenchmarkAblationExchange(b *testing.B) {
	p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1, Tiers: 4})
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	variants := []struct {
		name string
		opt  exchange.Options
	}{
		{"default", exchange.Options{Seed: 1}},
		{"topLineOnlyEq2", exchange.Options{Seed: 1, TopLineOnly: true}},
		{"noRangeConstraint", exchange.Options{Seed: 1, DisableRangeConstraint: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var last *exchange.Result
			for i := 0; i < b.N; i++ {
				res, err := exchange.Run(p, dfaA, v.opt)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if last != nil {
				b.ReportMetric(float64(last.After.MaxDensity), "density")
				if last.Legal {
					b.ReportMetric(1, "legal")
				} else {
					b.ReportMetric(0, "legal")
				}
			}
		})
	}
}

// BenchmarkAblationDFACut sweeps the DFA cut-line parameter n, reporting
// both the interior density and the cut-line corner load it trades against.
func BenchmarkAblationDFACut(b *testing.B) {
	p := benchProblem(b, 2)
	for _, cut := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("n%d", cut), func(b *testing.B) {
			var density, corner int
			for i := 0; i < b.N; i++ {
				a, err := assign.DFA(p, assign.DFAOptions{Cut: cut})
				if err != nil {
					b.Fatal(err)
				}
				s, err := route.Evaluate(p, a)
				if err != nil {
					b.Fatal(err)
				}
				density = s.MaxDensity
				if corner, err = route.MaxCornerCongestion(p, a); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(density), "density")
			b.ReportMetric(float64(corner), "corner")
		})
	}
}

// BenchmarkAblationWeights sweeps the Eq 3 weights on a stacked instance,
// reporting how ω and density trade off.
func BenchmarkAblationWeights(b *testing.B) {
	p := gen.MustBuild(gen.Table1()[0], gen.Options{Seed: 1, Tiers: 4})
	dfaA, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name     string
		rho, phi float64
	}{
		{"rho0.5_phi0.4", 0.5, 0.4},
		{"rho2.5_phi0.4", 2.5, 0.4},
		{"rho2.5_phi2.0", 2.5, 2.0},
	} {
		b.Run(w.name, func(b *testing.B) {
			var last *exchange.Result
			for i := 0; i < b.N; i++ {
				res, err := exchange.Run(p, dfaA, exchange.Options{Seed: 1, Rho: w.rho, Phi: w.phi})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if last != nil {
				b.ReportMetric(float64(last.After.MaxDensity), "density")
				b.ReportMetric(float64(last.After.Omega), "omega")
			}
		})
	}
}

// BenchmarkQuadrantScaling measures how Evaluate scales with ring size
// across the five circuits (the paper claims seconds for everything).
func BenchmarkQuadrantScaling(b *testing.B) {
	for idx, tc := range gen.Table1() {
		b.Run(tc.Name, func(b *testing.B) {
			p := benchProblem(b, idx)
			a, err := assign.DFA(p, assign.DFAOptions{})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := route.Evaluate(p, a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationViaShift measures the Kubo–Takahashi-style iterative via
// improvement on top of DFA across the five circuits, reporting the density
// before and after.
func BenchmarkAblationViaShift(b *testing.B) {
	for idx, tc := range gen.Table1() {
		b.Run(tc.Name, func(b *testing.B) {
			p := benchProblem(b, idx)
			a, err := assign.DFA(p, assign.DFAOptions{})
			if err != nil {
				b.Fatal(err)
			}
			base, err := route.Evaluate(p, a)
			if err != nil {
				b.Fatal(err)
			}
			var after int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, _, err := route.ImproveViasAllContext(context.Background(), p, a, 8)
				if err != nil {
					b.Fatal(err)
				}
				after = st.MaxDensity
			}
			b.ReportMetric(float64(base.MaxDensity), "density_before")
			b.ReportMetric(float64(after), "density_after")
		})
	}
}

// BenchmarkDesignIO measures design-file serialization round trips.
func BenchmarkDesignIO(b *testing.B) {
	p := benchProblem(b, 4)
	text := copack.FormatDesign(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := copack.ParseDesign(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDRC measures the full design-rule check.
func BenchmarkDRC(b *testing.B) {
	p := benchProblem(b, 4)
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := copack.CheckDesignRules(p, a, copack.DRCRules{})
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatal("unexpected violations")
		}
	}
}

// --- Parallel speedup (the worker-pool layer) ----------------------------

// workerCounts are the pool sizes every worker-scaling benchmark runs at.
var workerCounts = []int{1, 2, 4, 8}

// benchExchange runs one exchange sub-benchmark per worker count. The
// result is the same at every count (TestMultiStartDeterministicAcrossWorkers
// checks that); only the wall clock changes.
func benchExchange(b *testing.B, p *copack.Problem, initial *copack.Assignment, opt exchange.Options) {
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			opt.Workers = w
			for i := 0; i < b.N; i++ {
				if _, err := exchange.Run(p, initial, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelSpeedup measures the parallelized surfaces at 1, 2, 4
// and 8 workers: multi-start exchange, the Table 2 harness and the
// four-way engine comparison — plus one row for a 96×96 IR solve, which
// runs in sequence. Every variant returns byte-identical results; only the
// wall clock may change (and only on multi-core hosts: with GOMAXPROCS=1
// all worker counts degenerate to sequential execution).
func BenchmarkParallelSpeedup(b *testing.B) {
	b.Run("exchange", func(b *testing.B) {
		// Circuit 3 at ψ = 4 from its DFA order: four restarts, each
		// annealed warm from the MCMF order (exchange.Options.Restarts).
		p := gen.MustBuild(gen.Table1()[2], gen.Options{Seed: 1, Tiers: 4})
		dfaA, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchExchange(b, p, dfaA, exchange.Options{Seed: 1, Restarts: 4})
	})

	b.Run("power", func(b *testing.B) {
		// 96×96 = 9216 nodes, and even, so the Jacobi CG fallback runs.
		g := power.GridSpec{
			Nx: 96, Ny: 96, Width: 100, Height: 100,
			RsX: 0.05, RsY: 0.05, Vdd: 1.0, CurrentDensity: 1e-5,
		}
		var pads []power.Pad
		for i := 0; i < g.Nx; i += 7 {
			pads = append(pads, power.Pad{I: i, J: 0}, power.Pad{I: i, J: g.Ny - 1})
		}
		for i := 0; i < b.N; i++ {
			if _, err := power.Solve(g, pads, power.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("table2", func(b *testing.B) {
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := exp.Table2(1, 10, exp.Harness{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})

	b.Run("mcmf", func(b *testing.B) {
		// The engine comparison fanned over the harness pool: the MCMF
		// solve runs inside each work unit.
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := exp.CompareAssign(1, 3, exp.Harness{Workers: w}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	})
}

// BenchmarkLargeTier measures the scaling tier: the production IR solver
// (MGCG) on a 513×513 grid with a pad every 8 nodes round the boundary, in
// sequence, and four restarts of the exchange on the 100k+-net gen.Large
// circuit at 1, 2, 4 and 8 workers. 513 = 2⁹+1, so the multigrid hierarchy
// coarsens all the way down. TestLargeGridFingerprints pins the solve's
// bits, and TestLargeNDeterministicAcrossWorkers checks that the worker
// count never changes the exchange's result.
func BenchmarkLargeTier(b *testing.B) {
	b.Run("power", func(b *testing.B) {
		const n = 513
		g := power.GridSpec{
			Nx: n, Ny: n, Width: 1000, Height: 1000,
			RsX: 0.05, RsY: 0.05, Vdd: 1.0, CurrentDensity: 1e-5,
		}
		var pads []power.Pad
		for i := 0; i < n; i += 8 {
			pads = append(pads,
				power.Pad{I: i, J: 0}, power.Pad{I: i, J: n - 1},
				power.Pad{I: 0, J: i}, power.Pad{I: n - 1, J: i})
		}
		for i := 0; i < b.N; i++ {
			if _, err := power.Solve(g, pads, power.SolveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("exchange", func(b *testing.B) {
		p := gen.MustBuild(gen.Large(), gen.Options{Seed: 1})
		dfaA, err := assign.DFA(p, assign.DFAOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchExchange(b, p, dfaA, exchange.Options{Seed: 1, Restarts: 4,
			Schedule: anneal.Schedule{InitialTemp: 0.5, FinalTemp: 1e-2, Cooling: 0.8, MovesPerTemp: 50_000}})
	})
}
