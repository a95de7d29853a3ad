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

// largeNSeed1Hash pins the final assignment of the large-tier run below, so
// the 100k-net cell of the golden matrix is anchored to a constant rather
// than only to its own workers=1 run.
const largeNSeed1Hash = uint64(0x4a719e2dc4428281)

// The golden matrix extends to the large tier: on the 100k+-net circuit,
// restarts fanned out over 4 workers must reproduce the workers=1 run bit
// for bit — assignment, stats, restart costs and telemetry snapshot.
func TestLargeNDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("large tier run in -short mode")
	}
	p := gen.MustBuild(gen.Large(), gen.Options{Seed: 1})
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sched := anneal.Schedule{InitialTemp: 0.5, FinalTemp: 0.05, Cooling: 0.6, MovesPerTemp: 2000}

	var refHash uint64
	var refStats anneal.Stats
	var refCosts []float64
	var refSnap []byte
	for _, workers := range []int{1, 4} {
		col := obs.NewCollector()
		res, err := Run(p, a, Options{Seed: 1, Restarts: 4, Workers: workers, Schedule: sched, Recorder: col})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		h := fnv.New64a()
		for _, side := range bga.Sides() {
			for _, id := range res.Assignment.Slots[side] {
				fmt.Fprintf(h, "%d,", id)
			}
			fmt.Fprint(h, ";")
		}
		hash := h.Sum64()
		snap := col.Snapshot()
		js, err := snap.MarshalIndent()
		if err != nil {
			t.Fatalf("workers=%d: marshal snapshot: %v", workers, err)
		}
		if workers == 1 {
			refHash, refStats, refCosts, refSnap = hash, res.Stats, res.RestartCosts, js
			if hash != largeNSeed1Hash {
				t.Errorf("workers=1 assignment hash = %#016x, pinned %#016x", hash, largeNSeed1Hash)
			}
			continue
		}
		if hash != refHash {
			t.Errorf("workers=%d assignment hash = %#016x, workers=1 %#016x", workers, hash, refHash)
		}
		if res.Stats != refStats {
			t.Errorf("workers=%d stats = %+v, workers=1 %+v", workers, res.Stats, refStats)
		}
		if len(res.RestartCosts) != len(refCosts) {
			t.Fatalf("workers=%d: %d restart costs, workers=1 has %d", workers, len(res.RestartCosts), len(refCosts))
		}
		for k, rc := range res.RestartCosts {
			if math.Float64bits(rc) != math.Float64bits(refCosts[k]) {
				t.Errorf("workers=%d RestartCosts[%d] = %#016x, workers=1 %#016x",
					workers, k, math.Float64bits(rc), math.Float64bits(refCosts[k]))
			}
		}
		if string(js) != string(refSnap) {
			t.Errorf("workers=%d telemetry snapshot differs from workers=1", workers)
		}
	}
}
