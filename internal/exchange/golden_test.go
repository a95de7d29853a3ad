package exchange

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"copack/internal/anneal"
	"copack/internal/assign"
	"copack/internal/bga"
	"copack/internal/gen"
	"copack/internal/obs"
)

// TestGoldenResults pins the exchange output bit for bit. The expected
// values were captured from the single price-then-commit annealer
// contract: a rejected move mutates nothing, and the proxy cache resyncs
// from scratch on the commit that crosses resyncInterval. A run must
// reproduce the final assignment, every Stats counter, both cost floats
// and all RestartCosts exactly — same bits, not just close — at any worker
// count, with or without a Recorder attached. Any divergence means the
// incremental caches or the rng stream drifted from those semantics, or
// that instrumentation leaked into the computation. The telemetry snapshot itself must also be byte-identical
// across every instrumented cell of the matrix (the exchange emits no
// wall-clock data, so even the workers=1 and workers=4 snapshots match).
func TestGoldenResults(t *testing.T) {
	quick := anneal.Schedule{InitialTemp: 0.5, FinalTemp: 1e-3, Cooling: 0.85, MovesPerTemp: 200}
	cases := []struct {
		name     string
		circuit  int
		genSeed  int64
		tiers    int
		opt      Options
		wantHash uint64
		want     anneal.Stats
		restart  int
		costs    []uint64 // math.Float64bits of RestartCosts
	}{
		{"c0_t1_quick", 0, 4, 1, Options{Seed: 9, Schedule: quick},
			0x508f750d86c46401,
			anneal.Stats{Plateaus: 39, Proposed: 6250, Infeasible: 1550, Accepted: 3719, Uphill: 1408,
				FinalCost: math.Float64frombits(0x3ffc8408cd63069e), BestCost: math.Float64frombits(0x3ff0000000000000)},
			0, []uint64{0x3ffc8408cd63069a}},
		{"c0_t4_quick", 0, 4, 4, Options{Seed: 5, Schedule: quick},
			0xd3f8873e9624f24f,
			anneal.Stats{Plateaus: 39, Proposed: 6321, Infeasible: 1479, Accepted: 3223, Uphill: 445,
				FinalCost: math.Float64frombits(0x400c74c15e2dd914), BestCost: math.Float64frombits(0x3ff6666666666666)},
			0, []uint64{0x400c74c15e2dd916}},
		{"c1_t1_full", 1, 3, 1, Options{Seed: 9},
			0xeeb25dcb74273453,
			anneal.Stats{Plateaus: 111, Proposed: 57945, Infeasible: 13095, Accepted: 35135, Uphill: 13296,
				FinalCost: math.Float64frombits(0x4005a18dab7ec1cf), BestCost: math.Float64frombits(0x3ff0000000000000)},
			0, []uint64{0x4005a18dab7ec1de}},
		{"c1_t1_restarts", 1, 3, 1, Options{Seed: 9, Restarts: 3},
			0x41c2d602e90e6e77,
			anneal.Stats{Plateaus: 111, Proposed: 59878, Infeasible: 11162, Accepted: 32604, Uphill: 11924,
				FinalCost: math.Float64frombits(0x3ffbdb8c03505cdd), BestCost: math.Float64frombits(0x3ff0000000000000)},
			1, []uint64{0x4005a18dab7ec1de, 0x3ffbdb8c03505cce, 0x3ffbe8cd7678f53e}},
		{"c2_t4_full", 2, 1, 4, Options{Seed: 1},
			0xeacd4b87b1cf95f5,
			anneal.Stats{Plateaus: 111, Proposed: 72513, Infeasible: 19839, Accepted: 55520, Uphill: 8346,
				FinalCost: math.Float64frombits(0x40258349c6578b02), BestCost: math.Float64frombits(0x3ff6666666666666)},
			0, []uint64{0x40258349c6578b01}},
		// Several restarts at ψ ≥ 2 start warm from the MCMF order on the
		// warm schedule (Options.Restarts): these are the bits the retired
		// restart bandit produced with its one warm arm alone (auto engine,
		// move scale 0.5, entry temperature 0.05) at a budget of 4.
		{"c2_t4_restarts4", 2, 1, 4, Options{Seed: 1, Restarts: 4},
			0xd9de2256c5546953,
			anneal.Stats{Plateaus: 75, Proposed: 24583, Infeasible: 6617, Accepted: 16166, Uphill: 1895,
				FinalCost: math.Float64frombits(0x40209178abdc8980), BestCost: math.Float64frombits(0x40209178abdc8980)},
			2, []uint64{0x40209c38a9ea64aa, 0x4020a2633dc1f790, 0x40209178abdc897e, 0x4020a11605fcb7cd}},
		{"c2_t4_topline", 2, 1, 4, Options{Seed: 1, TopLineOnly: true},
			0x142618cb07be5ad7,
			anneal.Stats{Plateaus: 111, Proposed: 71697, Infeasible: 20655, Accepted: 55696, Uphill: 8029,
				FinalCost: math.Float64frombits(0x40206a3bc0776f41), BestCost: math.Float64frombits(0x3ff64c64c64c64c6)},
			0, []uint64{0x40206a3bc0776f43}},
		{"c0_t1_norange", 0, 4, 1, Options{Seed: 1, Schedule: quick, DisableRangeConstraint: true},
			0x4f8abb14256ee89d,
			anneal.Stats{Plateaus: 39, Proposed: 7800, Infeasible: 0, Accepted: 4775, Uphill: 1768,
				FinalCost: math.Float64frombits(0x3ffac60d341489e9), BestCost: math.Float64frombits(0x3ff0000000000000)},
			0, []uint64{0x3ffac60d341489e6}},
		{"c3_t2_weights", 3, 5, 2, Options{Seed: 7, Schedule: quick, Lambda: 2, Rho: 0.5, Phi: 1.1},
			0xa1cdb5d7adc9de03,
			anneal.Stats{Plateaus: 39, Proposed: 6309, Infeasible: 1491, Accepted: 5365, Uphill: 858,
				FinalCost: math.Float64frombits(0x401206c56b170159), BestCost: math.Float64frombits(0x4008cccccccccccd)},
			0, []uint64{0x401206c56b17015b}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := gen.MustBuild(gen.Table1()[tc.circuit], gen.Options{Seed: tc.genSeed, Tiers: tc.tiers})
			a, err := assign.DFA(p, assign.DFAOptions{})
			if err != nil {
				t.Fatal(err)
			}
			var snapshots [][]byte
			for _, workers := range []int{1, 4} {
				for _, instrumented := range []bool{false, true} {
					cell := fmt.Sprintf("workers=%d recorder=%v", workers, instrumented)
					opt := tc.opt
					opt.Workers = workers
					var col *obs.Collector
					if instrumented {
						col = obs.NewCollector()
						opt.Recorder = col
					}
					res, err := Run(p, a, opt)
					if err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
					h := fnv.New64a()
					for _, side := range bga.Sides() {
						for _, id := range res.Assignment.Slots[side] {
							fmt.Fprintf(h, "%d,", id)
						}
						fmt.Fprint(h, ";")
					}
					if got := h.Sum64(); got != tc.wantHash {
						t.Errorf("%s: assignment hash = %#016x, want %#016x", cell, got, tc.wantHash)
					}
					s := res.Stats
					if s.Plateaus != tc.want.Plateaus || s.Proposed != tc.want.Proposed ||
						s.Infeasible != tc.want.Infeasible || s.Accepted != tc.want.Accepted ||
						s.Uphill != tc.want.Uphill {
						t.Errorf("%s: stats = %+v, want %+v", cell, s, tc.want)
					}
					if math.Float64bits(s.FinalCost) != math.Float64bits(tc.want.FinalCost) {
						t.Errorf("%s: FinalCost = %#016x, want %#016x",
							cell, math.Float64bits(s.FinalCost), math.Float64bits(tc.want.FinalCost))
					}
					if math.Float64bits(s.BestCost) != math.Float64bits(tc.want.BestCost) {
						t.Errorf("%s: BestCost = %#016x, want %#016x",
							cell, math.Float64bits(s.BestCost), math.Float64bits(tc.want.BestCost))
					}
					if res.Restart != tc.restart {
						t.Errorf("%s: Restart = %d, want %d", cell, res.Restart, tc.restart)
					}
					if len(res.RestartCosts) != len(tc.costs) {
						t.Fatalf("%s: %d restart costs, want %d", cell, len(res.RestartCosts), len(tc.costs))
					}
					for k, rc := range res.RestartCosts {
						if math.Float64bits(rc) != tc.costs[k] {
							t.Errorf("%s: RestartCosts[%d] = %#016x, want %#016x",
								cell, k, math.Float64bits(rc), tc.costs[k])
						}
					}
					if col != nil {
						snap := col.Snapshot()
						if got := snap.Counters[fmt.Sprintf("exchange/restart%d/moves_priced", res.Restart)]; got != int64(s.Proposed) {
							t.Errorf("%s: snapshot moves_priced = %d, want %d", cell, got, s.Proposed)
						}
						if got := snap.Counters[fmt.Sprintf("exchange/restart%d/moves_committed", res.Restart)]; got != int64(s.Accepted) {
							t.Errorf("%s: snapshot moves_committed = %d, want %d", cell, got, s.Accepted)
						}
						if got := snap.Gauges["exchange/winner_restart"]; got != float64(res.Restart) {
							t.Errorf("%s: snapshot winner_restart = %v, want %d", cell, got, res.Restart)
						}
						js, err := snap.MarshalIndent()
						if err != nil {
							t.Fatalf("%s: marshal snapshot: %v", cell, err)
						}
						snapshots = append(snapshots, js)
					}
				}
			}
			for i := 1; i < len(snapshots); i++ {
				if string(snapshots[i]) != string(snapshots[0]) {
					t.Errorf("instrumented snapshot %d differs from snapshot 0:\n%s\nvs\n%s",
						i, snapshots[i], snapshots[0])
				}
			}
		})
	}
}
