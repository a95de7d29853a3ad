package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// percentile returns the nearest-rank p-th percentile of xs (0 < p ≤ 100):
// the smallest sample with at least p% of the samples at or below it.
// It sorts xs in place and returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p * float64(len(xs)) / 100))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// tailSupported reports whether n samples leave at least ten beyond the
// p-th percentile, the rule for publishing a tail percentile at all.
func tailSupported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n)/100)) >= 10
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the "exclusive" interpolation Python's statistics.quantiles uses by
// default, so spreads computed here match an external check of the same
// values. One sample gives that sample three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// metricDecl is one metric as BENCHMARK.json declares it.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// declaration is the part of BENCHMARK.json the benchmark reads: workload
// names and the metric sets with their units, directions and bounds.
type declaration struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// loadDeclaration reads BENCHMARK.json.
func loadDeclaration(path string) (*declaration, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark declaration: %w", err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &d, nil
}

// checkAgainst fails unless the code's workloads and the metric sets it
// emits are exactly the ones declared, with the same units.
func (d *declaration) checkAgainst(workloads []string, endToEnd, perLayer []metricDef) error {
	var declared []string
	for _, w := range d.Workloads {
		declared = append(declared, w.Name)
	}
	if fmt.Sprint(declared) != fmt.Sprint(workloads) {
		return fmt.Errorf("declared workloads %v, code runs %v", declared, workloads)
	}
	if err := sameMetrics("end_to_end", d.EndToEnd, endToEnd); err != nil {
		return err
	}
	return sameMetrics("per_layer", d.PerLayer, perLayer)
}

func sameMetrics(set string, decl []metricDecl, code []metricDef) error {
	if len(decl) != len(code) {
		return fmt.Errorf("%s: declared %d metrics, code emits %d", set, len(decl), len(code))
	}
	for i := range decl {
		c := code[i]
		if decl[i].Name != c.name || decl[i].Unit != c.unit || decl[i].Better != c.better {
			return fmt.Errorf("%s[%d]: declared %s (%s, %s), code emits %s (%s, %s)", set, i,
				decl[i].Name, decl[i].Unit, decl[i].Better, c.name, c.unit, c.better)
		}
	}
	return nil
}

// verdict labels one (metric, workload) pair of a baseline comparison.
type verdict string

const (
	better     verdict = "better"
	worse      verdict = "worse"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
)

// compare judges a new median against a baseline summary under a bound
// (a share of the baseline median). The returned change is the worsening
// as a share of the baseline median (negative: an improvement). The pair
// is unresolved when the baseline's own quartile spread is wider than the
// bound, because a change inside the noise cannot be told apart from none.
func compare(base *summary, newMedian *float64, m metricDecl) (verdict, float64) {
	if base.Median == nil || *base.Median == 0 || base.Q1 == nil || base.Q3 == nil || newMedian == nil {
		return unresolved, math.NaN()
	}
	med := *base.Median
	change := (*newMedian - med) / math.Abs(med)
	if m.Better == "higher" {
		change = -change
	}
	if (*base.Q3-*base.Q1)/math.Abs(med) > m.Bound {
		return unresolved, change
	}
	switch {
	case change > m.Bound:
		return worse, change
	case change < -m.Bound:
		return better, change
	default:
		return unchanged, change
	}
}
