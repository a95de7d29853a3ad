// Command fpbench regenerates the paper's tables and figures (see
// EXPERIMENTS.md for the paper-vs-measured record).
//
// Usage:
//
//	fpbench -table 2            # Table 2: density/wirelength comparison
//	fpbench -table 3            # Table 3: exchange results, ψ ∈ {1,4}
//	fpbench -fig 6 -out plots/  # Fig 6: IR maps (writes SVGs)
//	fpbench -all -out plots/
//	fpbench -sweep 20 -workers 4   # Table 2 over 20 seeds on 4 workers
//	fpbench -compare            # four-way engine table + restart-policy table
//	fpbench -table 3 -cpuprofile cpu.out -memprofile mem.out   # pprof evidence
//
// -workers bounds the pool used by tables and sweeps; every output is
// byte-identical for any value (see DESIGN.md's determinism notes). Timings
// live in the root benchmarks (go test -bench .) and in bench/.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"copack/internal/exp"
)

// main defers to realMain so that deferred profile writers run before the
// process exits (os.Exit would skip them).
func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain parses args on a private FlagSet and runs the selected
// experiments; taking the argument slice (rather than reading os.Args via
// the global flag state) keeps the whole CLI callable from tests.
func realMain(args []string) int {
	fs := flag.NewFlagSet("fpbench", flag.ContinueOnError)
	var (
		table    = fs.Int("table", 0, "regenerate a table (1, 2 or 3)")
		fig      = fs.Int("fig", 0, "regenerate a figure (5, 6, 13 or 15)")
		all      = fs.Bool("all", false, "regenerate everything")
		seed     = fs.Int64("seed", 1, "random seed")
		out      = fs.String("out", ".", "directory for SVG artifacts")
		quick    = fs.Bool("quick", false, "faster, lower-fidelity Fig 6")
		sweep    = fs.Int("sweep", 0, "re-run Table 2 over this many seeds and report ratio distributions")
		sweep3   = fs.Int("sweep3", 0, "re-run Table 3 over this many seeds and report improvement distributions")
		flipchip = fs.Bool("flipchip", false, "compare wire-bond vs flip-chip IR-drop (the paper's §2.4 motivation)")
		compare  = fs.Bool("compare", false, "compare the four assignment engines (Table 2 + MCMF) and the exchange's restart policy (one cold pull vs the start rule)")
		workers  = fs.Int("workers", runtime.NumCPU(), "worker pool size for tables and sweeps (results are identical for any value)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
		memProf  = fs.String("memprofile", "", "write a heap profile to this file on exit (pprof format)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fpbench: -cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fpbench: -cpuprofile: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fpbench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // profile live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "fpbench: -memprofile: %v\n", err)
			}
		}()
	}

	// harness fans experiment work units out over -workers and reports
	// per-unit progress on stderr; the results are byte-identical to the
	// sequential run for any worker count.
	harness := exp.Harness{
		Workers:  *workers,
		Progress: func(line string) { fmt.Fprintf(os.Stderr, "fpbench: %s\n", line) },
	}

	failed := false
	run := func(name string, fn func() error) {
		if failed {
			return
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "fpbench: %s: %v\n", name, err)
			failed = true
		}
	}
	any := false
	if *all || *table == 1 {
		any = true
		run("table1", func() error {
			fmt.Println("== Table 1: test circuits ==")
			fmt.Println(exp.Table1Text())
			return nil
		})
	}
	if *all || *table == 2 {
		any = true
		run("table2", func() error {
			res, err := exp.Table2(*seed, 10, harness)
			if err != nil {
				return err
			}
			fmt.Println("== Table 2: max density and wirelength (paper avg ratios: 0.63/0.36 density, 0.88/0.82 WL) ==")
			fmt.Println(res.Format())
			return nil
		})
	}
	if *all || *table == 3 {
		any = true
		run("table3", func() error {
			res, err := exp.Table3(*seed, harness)
			if err != nil {
				return err
			}
			fmt.Println("== Table 3: finger/pad exchange (paper: IR 10.61% @ψ=1, 4.58% @ψ=4, bonding 15.66%) ==")
			fmt.Println(res.Format())
			return nil
		})
	}
	if *all || *fig == 5 {
		any = true
		run("fig5", func() error {
			f, err := exp.Fig5()
			if err != nil {
				return err
			}
			fmt.Println("== Fig 5/10/12: worked example ==")
			fmt.Println(f.Format())
			return nil
		})
	}
	if *all || *fig == 13 {
		any = true
		run("fig13", func() error {
			f, err := exp.Fig13()
			if err != nil {
				return err
			}
			fmt.Println("== Fig 13: 20-net example ==")
			fmt.Println(f.Format())
			return nil
		})
	}
	if *all || *fig == 6 {
		any = true
		run("fig6", func() error {
			res, err := exp.Fig6(*seed, *quick)
			if err != nil {
				return err
			}
			fmt.Println("== Fig 6: IR-drop of the 138-pad chip (paper: 117.4 / 77.3 / 55.2 mV) ==")
			for _, name := range []string{"random", "regular", "proposed"} {
				fmt.Printf("%-9s: %.1f mV\n", name, res.Drop[name]*1000)
				path := filepath.Join(*out, "fig6_"+name+".svg")
				if err := os.WriteFile(path, res.SVG[name], 0o644); err != nil {
					return err
				}
				fmt.Printf("           wrote %s\n", path)
			}
			return nil
		})
	}
	if *all || *fig == 15 {
		any = true
		run("fig15", func() error {
			res, err := exp.Fig15(*seed)
			if err != nil {
				return err
			}
			fmt.Println("== Fig 15: circuit 2 routing plots ==")
			for _, name := range []string{"random", "ifa", "dfa"} {
				fmt.Printf("%-7s: density %d, wirelength %.1f µm\n", name, res.Density[name], res.Wirelen[name])
				path := filepath.Join(*out, "fig15_"+name+".svg")
				if err := os.WriteFile(path, res.SVG[name], 0o644); err != nil {
					return err
				}
				fmt.Printf("         wrote %s\n", path)
			}
			return nil
		})
	}
	if *sweep > 0 {
		any = true
		run("sweep", func() error {
			res, err := exp.SweepTable2(context.Background(), exp.Seeds(*sweep), 10, harness)
			if err != nil {
				return err
			}
			fmt.Println("== Table 2 seed sweep ==")
			fmt.Println(res.Format())
			return nil
		})
	}
	if *sweep3 > 0 {
		any = true
		run("sweep3", func() error {
			res, err := exp.SweepTable3(context.Background(), exp.Seeds(*sweep3), harness)
			if err != nil {
				return err
			}
			fmt.Println("== Table 3 seed sweep ==")
			fmt.Println(res.Format())
			return nil
		})
	}
	if *all || *flipchip {
		any = true
		run("flipchip", func() error {
			res, err := exp.FlipChip(nil)
			if err != nil {
				return err
			}
			fmt.Println("== Wire-bond vs flip-chip IR-drop (paper §2.4) ==")
			fmt.Println(res.Format())
			return nil
		})
	}
	if *all || *compare {
		any = true
		run("compare", func() error {
			res, err := exp.CompareAssign(*seed, 10, harness)
			if err != nil {
				return err
			}
			fmt.Println("== Assignment engines: random / IFA / DFA / MCMF ==")
			fmt.Println(res.Format())
			pol, err := exp.RestartPolicy([]int64{*seed}, harness)
			if err != nil {
				return err
			}
			fmt.Printf("== Restart policy: one cold pull vs the start rule at Restarts %d (cold at ψ = 1, warm at ψ ≥ 2), shared Eq 3 baseline ==\n", exp.PolicyRestarts)
			fmt.Println(pol.Format())
			return nil
		})
	}
	if !any {
		fs.Usage()
		return 2
	}
	if failed {
		return 1
	}
	return 0
}
