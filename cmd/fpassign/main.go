// Command fpassign runs the chip-package co-design flow on one instance:
// congestion-driven finger/pad assignment followed by the IR-drop- and
// bonding-aware exchange. It prints the before/after metrics and optionally
// writes routing and IR-map SVGs.
//
// Usage:
//
//	fpassign -circuit 2 -alg dfa -tiers 4 -seed 1 -svg routing.svg -irmap ir.svg
//	fpassign -fingers 256 -ballspace 1.2 -alg ifa -skip-exchange
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"copack"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

// realMain parses args on a private FlagSet and runs the flow; taking the
// argument slice (rather than the global flag state) keeps the whole CLI
// callable from tests, mirroring fpbench's structure.
func realMain(args []string) int {
	fs := flag.NewFlagSet("fpassign", flag.ContinueOnError)
	var (
		circuit      = fs.Int("circuit", 0, "Table 1 circuit number 1..5 (0 = use -fingers)")
		in           = fs.String("in", "", "load a design file instead of generating an instance")
		out          = fs.String("out", "", "write the planned design back to a design file")
		fingers      = fs.Int("fingers", 96, "finger/pad count for a custom instance")
		ballSpace    = fs.Float64("ballspace", 1.2, "bump ball spacing (µm) for a custom instance")
		alg          = fs.String("alg", "dfa", "assignment algorithm: dfa, ifa, random or mcmf")
		tiers        = fs.Int("tiers", 1, "stacking tier count ψ (1 = 2-D IC)")
		seed         = fs.Int64("seed", 1, "random seed")
		skipExchange = fs.Bool("skip-exchange", false, "stop after the congestion-driven step")
		improveVias  = fs.Bool("improve-vias", false, "run the iterative via improvement after planning")
		runDRC       = fs.Bool("drc", false, "run the design-rule check on the final plan")
		svgPath      = fs.String("svg", "", "write the routing plot to this SVG file")
		irPath       = fs.String("irmap", "", "write the IR-drop heat map to this SVG file")
		timeout      = fs.Duration("timeout", 0, "planning time budget (e.g. 30s); on expiry the best-so-far plan is reported (0 = none)")
		metricsPath  = fs.String("metrics", "", "write the run's telemetry snapshot (counters, gauges, phase timings) to this JSON file")
		restarts     = fs.Int("restarts", 0, "independently seeded exchange anneals, best Eq 3 kept; above 1 at ψ ≥ 2 they start warm (0 or 1 = the paper's single anneal)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := config{
		circuit: *circuit, in: *in, out: *out, fingers: *fingers, ballSpace: *ballSpace,
		alg: *alg, tiers: *tiers, seed: *seed, skipExchange: *skipExchange,
		improveVias: *improveVias, runDRC: *runDRC, svgPath: *svgPath, irPath: *irPath,
		timeout: *timeout, metricsPath: *metricsPath,
		restarts: *restarts,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fpassign:", err)
		return 1
	}
	return 0
}

type config struct {
	circuit         int
	in, out         string
	fingers         int
	ballSpace       float64
	alg             string
	tiers           int
	seed            int64
	skipExchange    bool
	improveVias     bool
	runDRC          bool
	svgPath, irPath string
	timeout         time.Duration
	metricsPath     string
	restarts        int
}

func run(cfg config) error {
	circuit, fingers, ballSpace := cfg.circuit, cfg.fingers, cfg.ballSpace
	alg, tiers, seed := cfg.alg, cfg.tiers, cfg.seed
	skipExchange, svgPath, irPath := cfg.skipExchange, cfg.svgPath, cfg.irPath

	algorithm, err := copack.ParseAlgorithm(alg)
	if err != nil {
		return err
	}
	var p *copack.Problem
	tc := copack.TestCircuit{Name: "design"}
	if cfg.in != "" {
		f, err := os.Open(cfg.in)
		if err != nil {
			return err
		}
		p, err = copack.ReadDesign(f)
		f.Close()
		if err != nil {
			return err
		}
		tc.Name = p.Circuit.Name
		tc.Fingers = p.Circuit.NumNets()
		tiers = p.Tiers
	} else {
		if circuit >= 1 && circuit <= 5 {
			tc = copack.Table1Circuits()[circuit-1]
		} else if circuit == 0 {
			tc = copack.TestCircuit{Name: "custom", Fingers: fingers,
				BallSpace: ballSpace, FingerW: 0.1, FingerH: 0.2, FingerSpace: 0.12}
		} else {
			return fmt.Errorf("circuit %d outside 1..5", circuit)
		}
		if p, err = copack.BuildCircuit(tc, copack.BuildOptions{Seed: seed, Tiers: tiers}); err != nil {
			return err
		}
	}
	planOpt := copack.Options{
		Algorithm:    algorithm,
		SkipExchange: skipExchange,
		Seed:         seed,
		Budget:       cfg.timeout,
		Exchange:     copack.ExchangeOptions{Restarts: cfg.restarts},
	}
	var collector *copack.MetricsCollector
	if cfg.metricsPath != "" {
		// Only set Recorder when asked: a nil interface keeps the whole
		// pipeline on the no-op path.
		collector = copack.NewMetricsCollector()
		planOpt.Recorder = collector
	}
	res, err := copack.PlanContext(context.Background(), p, planOpt)
	if err != nil {
		return err
	}

	fmt.Printf("instance      : %s (%d fingers, ψ=%d, seed %d)\n", tc.Name, tc.Fingers, tiers, seed)
	fmt.Printf("algorithm     : %v\n", algorithm)
	if res.Partial {
		fmt.Printf("status        : PARTIAL — %s\n", res.Stopped)
	}
	fmt.Printf("max density   : %d", res.InitialStats.MaxDensity)
	if !skipExchange {
		fmt.Printf(" -> %d after exchange", res.FinalStats.MaxDensity)
	}
	fmt.Println()
	fmt.Printf("wirelength    : %.1f µm", res.InitialStats.Wirelength)
	if !skipExchange {
		fmt.Printf(" -> %.1f µm", res.FinalStats.Wirelength)
	}
	fmt.Println()
	fmt.Printf("max IR-drop   : %.2f mV", res.IRDropBefore*1000)
	if !skipExchange {
		imp := (res.IRDropBefore - res.IRDropAfter) / res.IRDropBefore * 100
		fmt.Printf(" -> %.2f mV (%.2f%% better)", res.IRDropAfter*1000, imp)
	}
	fmt.Println()
	if tiers > 1 {
		fmt.Printf("omega (bond)  : %d", res.OmegaBefore)
		if !skipExchange {
			fmt.Printf(" -> %d", res.OmegaAfter)
		}
		fmt.Println()
	}
	if res.Exchange != nil {
		fmt.Printf("anneal        : %d proposed, %d accepted, %d uphill\n",
			res.Exchange.Stats.Proposed, res.Exchange.Stats.Accepted, res.Exchange.Stats.Uphill)
		if n := len(res.Exchange.RestartCosts); n > 1 {
			fmt.Printf("restarts      : %d; winner restart %d (Eq 3 cost %.4f)\n",
				n, res.Exchange.Restart, res.Exchange.RestartCosts[res.Exchange.Restart])
		}
	}

	if cfg.improveVias {
		_, st, err := copack.ImproveVias(p, res.Assignment, 8)
		if err != nil {
			return err
		}
		fmt.Printf("via improve   : density %d -> %d\n", res.FinalStats.MaxDensity, st.MaxDensity)
	}
	if cfg.runDRC {
		rep, err := copack.CheckDesignRules(p, res.Assignment)
		if err != nil {
			return err
		}
		if rep.OK() {
			fmt.Printf("DRC           : clean (segment capacity %d wires)\n", rep.SegmentCapacity)
		} else {
			fmt.Printf("DRC           : %d violations (segment capacity %d)\n", len(rep.Violations), rep.SegmentCapacity)
			for i, v := range rep.Violations {
				if i == 8 {
					fmt.Printf("                … %d more\n", len(rep.Violations)-i)
					break
				}
				fmt.Printf("                %v\n", v)
			}
		}
	}
	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		err = copack.WriteSolution(f, p, res.Assignment)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Printf("design file   : %s (with planned order)\n", cfg.out)
	}

	if svgPath != "" {
		r, err := copack.RealizeRouting(p, res.Assignment)
		if err != nil {
			return err
		}
		if err := os.WriteFile(svgPath, copack.RoutingSVG(p, r, tc.Name), 0o644); err != nil {
			return err
		}
		fmt.Printf("routing plot  : %s\n", svgPath)
	}
	if irPath != "" {
		sol, err := copack.SolveIRDrop(p, res.Assignment, copack.DefaultChipGrid(p))
		if err != nil {
			return err
		}
		if err := os.WriteFile(irPath, copack.IRMapSVG(p, res.Assignment, sol, tc.Name), 0o644); err != nil {
			return err
		}
		fmt.Printf("IR heat map   : %s\n", irPath)
	}
	if collector != nil {
		snap := collector.Snapshot()
		data, err := snap.MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.metricsPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("metrics       : %s (%d keys)\n", cfg.metricsPath, len(snap.Keys()))
	}
	return nil
}
