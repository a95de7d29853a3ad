// Command bench is copack's end-to-end benchmark. It boots the real
// planning service (and a three-node fleet) in process on loopback HTTP
// servers, drives seeded closed-loop workloads through them, checks every
// response, and prints every metric BENCHMARK.json declares, by name and
// with its unit. A traced run adds client-side spans and a layer-by-layer
// replay that give the per-layer metrics. See README.md.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [flags]
//
//	-workload name|all   workload to run (default all)
//	-seed n              input seed (default 1)
//	-seconds s           measured load per run (default: BENCHMARK.json run_seconds)
//	-trace 0|1|file      1 or a file name: traced per-layer run (spans go to the file)
//	-runs n              repeat every workload n times; report medians and quartiles
//	-out file            write the full report as JSON
//	-baseline file       compare with an earlier -out report; exit 1 on any "worse"
//	-rev hash            revision recorded in the report
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, defaultSizes)) }

// summary is one (workload, metric) over a run set. Values holds each
// run's reading (null for an unsupported tail percentile) and Samples the
// sample count behind it; the quartiles ignore nulls.
type summary struct {
	Unit    string     `json:"unit"`
	Median  *float64   `json:"median"`
	Q1      *float64   `json:"q1"`
	Q3      *float64   `json:"q3"`
	Values  []*float64 `json:"values"`
	Samples []int      `json:"samples"`
}

type workloadReport struct {
	OpsAttempted []int               `json:"ops_attempted"`
	OpsFailed    []int               `json:"ops_failed"`
	Errors       []string            `json:"errors,omitempty"`
	Metrics      map[string]*summary `json:"metrics"`
}

// report is the -out file: enough about the box and the code to read the
// numbers without the command line that made them.
type report struct {
	GoVersion  string                     `json:"go_version"`
	NumCPU     int                        `json:"num_cpu"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       int64                      `json:"seed"`
	Rev        string                     `json:"rev,omitempty"`
	Seconds    float64                    `json:"seconds"`
	Runs       int                        `json:"runs"`
	Traced     bool                       `json:"traced"`
	Workloads  map[string]*workloadReport `json:"workloads"`
}

func num(f float64) *float64 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil
	}
	return &f
}

func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 0, "measured load per run in seconds (0: BENCHMARK.json run_seconds)")
	traceArg := fs.String("trace", "0", "0: end-to-end run; 1: traced per-layer run; other: traced, spans written to this file")
	runs := fs.Int("runs", 1, "runs per workload")
	out := fs.String("out", "", "write the report as JSON to this file")
	baseline := fs.String("baseline", "", "compare with this earlier -out report")
	rev := fs.String("rev", "", "revision to record (git rev-parse HEAD)")
	declPath := fs.String("decl", "BENCHMARK.json", "path of BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "bench: "+format+"\n", a...)
		return 1
	}

	decl, err := loadDeclaration(*declPath)
	if err != nil {
		return fail("%v", err)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if err := decl.checkAgainst(names, endToEnd, perLayer); err != nil {
		return fail("BENCHMARK.json and the code disagree: %v", err)
	}
	if *seconds <= 0 {
		*seconds = float64(decl.RunSeconds)
	}
	if *runs < 1 || *seconds <= 0 {
		return fail("-runs and -seconds must be positive")
	}
	selected := workloads
	if *wname != "all" {
		w, ok := workloadByName(*wname)
		if !ok {
			return fail("unknown workload %q (want one of %v or all)", *wname, names)
		}
		selected = []workload{w}
	}
	traced := *traceArg != "0"
	traceFile := ""
	if traced && *traceArg != "1" {
		traceFile = *traceArg
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}

	rep := &report{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: *seed, Rev: *rev, Seconds: *seconds, Runs: *runs, Traced: traced,
		Workloads: map[string]*workloadReport{},
	}
	fmt.Fprintf(stdout, "# go=%s num_cpu=%d gomaxprocs=%d seed=%d rev=%s seconds=%g runs=%d traced=%t\n",
		rep.GoVersion, rep.NumCPU, rep.GOMAXPROCS, rep.Seed, rep.Rev, rep.Seconds, rep.Runs, rep.Traced)
	spans := map[string][][]span{}
	correct := true
	attempted, failed := 0, 0
	for _, w := range selected {
		wr := &workloadReport{Metrics: map[string]*summary{}}
		rep.Workloads[w.name] = wr
		for _, d := range defs {
			wr.Metrics[d.name] = &summary{Unit: d.unit}
		}
		for r := 0; r < *runs; r++ {
			res, err := runWorkload(w, *seed, *seconds, sz, traced)
			if err != nil {
				return fail("%v", err)
			}
			fmt.Fprintf(stdout, "%s run=%d ops_attempted=%d ops_failed=%d correct=%t\n", w.name, r+1, res.attempted, res.failed, res.correct)
			for _, e := range res.errs {
				fmt.Fprintf(stdout, "%s run=%d error: %s\n", w.name, r+1, e)
			}
			wr.OpsAttempted = append(wr.OpsAttempted, res.attempted)
			wr.OpsFailed = append(wr.OpsFailed, res.failed)
			wr.Errors = append(wr.Errors, res.errs...)
			correct = correct && res.correct
			attempted += res.attempted
			failed += res.failed
			for _, d := range defs {
				v, ok := res.metrics[d.name]
				if !ok {
					return fail("%s: code emitted no %s", w.name, d.name)
				}
				s := wr.Metrics[d.name]
				s.Values = append(s.Values, num(v.v))
				s.Samples = append(s.Samples, v.samples)
			}
			if traceFile != "" {
				spans[w.name] = append(spans[w.name], res.spans)
			}
		}
		for _, d := range defs {
			s := wr.Metrics[d.name]
			var vs []float64
			for _, v := range s.Values {
				if v != nil {
					vs = append(vs, *v)
				}
			}
			if len(vs) > 0 {
				q1, med, q3 := quartiles(vs)
				s.Q1, s.Median, s.Q3 = num(q1), num(med), num(q3)
			}
			fmt.Fprintf(stdout, "%-10s %-28s %14s %-5s q1=%s q3=%s runs=%d samples=%v\n",
				w.name, d.name, fmtNum(s.Median), d.unit, fmtNum(s.Q1), fmtNum(s.Q3), len(s.Values), s.Samples)
		}
	}

	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			return fail("%v", err)
		}
	}
	if traceFile != "" {
		if err := writeJSON(traceFile, spans); err != nil {
			return fail("%v", err)
		}
	}
	code := 0
	if *baseline != "" {
		worst, err := compareBaseline(stdout, *baseline, rep, decl)
		if err != nil {
			return fail("%v", err)
		}
		if worst {
			code = 1
		}
	}

	// The result line: with one workload the metrics keep their declared
	// names; with several each is prefixed by its workload.
	type reading struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	metrics := map[string]reading{}
	for _, w := range selected {
		for _, d := range defs {
			key := d.name
			if len(selected) > 1 {
				key = w.name + "/" + d.name
			}
			metrics[key] = reading{rep.Workloads[w.name].Metrics[d.name].Median, d.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{correct, attempted, failed, metrics})
	if err != nil {
		return fail("%v", err)
	}
	fmt.Fprintln(stdout, string(line))
	return code
}

func fmtNum(f *float64) string {
	if f == nil {
		return "null"
	}
	return fmt.Sprintf("%.6g", *f)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// compareBaseline labels every (workload, end-to-end metric) pair present
// in both reports and reports whether any got worse.
func compareBaseline(w io.Writer, path string, rep *report, decl *declaration) (anyWorse bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, fmt.Errorf("reading baseline: %w", err)
	}
	var base report
	if err := json.Unmarshal(data, &base); err != nil {
		return false, fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	var wnames []string
	for name := range rep.Workloads {
		wnames = append(wnames, name)
	}
	sort.Strings(wnames)
	for _, wn := range wnames {
		bw := base.Workloads[wn]
		if bw == nil {
			continue
		}
		for _, m := range decl.EndToEnd {
			cur, old := rep.Workloads[wn].Metrics[m.Name], bw.Metrics[m.Name]
			if cur == nil || old == nil {
				continue
			}
			v, change := compare(old, cur.Median, m)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(w, "baseline %-10s %-18s %-10s change=%+.2f%% bound=%.0f%%\n", wn, m.Name, v, 100*change, 100*m.Bound)
		}
	}
	return anyWorse, nil
}
