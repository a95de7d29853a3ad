package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"testing"

	"copack/internal/bga"
	"copack/internal/core"
	"copack/internal/netlist"
)

// The large-tier generator must emit byte-identical circuits for a fixed
// seed, run after run and regardless of GOMAXPROCS — the whole bench
// trajectory depends on it. The fingerprint is pinned so a silent change to
// the generator (or to the seeded permutation behind it) fails loudly
// instead of quietly invalidating every committed BENCH number.
const largeSeed1Fingerprint = "22e5d1f915119f84648abc8cc2845f5103c340499a0534da6607d00ea8edb5bb"

func TestLargeDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("large tier build in -short mode")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			p := MustBuild(Large(), Options{Seed: 1})
			if n := p.Circuit.NumNets(); n < 100000 {
				t.Fatalf("large tier has %d nets, want >= 100000", n)
			}
			if fp := fingerprint(p); fp != largeSeed1Fingerprint {
				t.Fatalf("procs=%d run=%d: fingerprint %s, pinned %s", procs, run, fp, largeSeed1Fingerprint)
			}
		}
	}
}

// Different seeds must produce different ball mappings (the fingerprint
// covers the mapping), and the same seed must reproduce Table 1 instances
// too — the fingerprint is usable across tiers.
func TestFingerprintSeparatesSeeds(t *testing.T) {
	tc := Table1()[0]
	a := fingerprint(MustBuild(tc, Options{Seed: 1}))
	b := fingerprint(MustBuild(tc, Options{Seed: 2}))
	c := fingerprint(MustBuild(tc, Options{Seed: 1}))
	if a == b {
		t.Error("seeds 1 and 2 fingerprint equal")
	}
	if a != c {
		t.Error("seed 1 fingerprints differ across builds")
	}
}

// fingerprint returns a hex SHA-256 over a canonical encoding of a problem:
// the netlist in its text format followed by every quadrant's ball rows in
// order. Two problems fingerprint equal iff the assignment pipeline sees
// identical inputs, which is what the large-tier determinism tests pin
// across runs and GOMAXPROCS settings.
func fingerprint(p *core.Problem) string {
	h := sha256.New()
	if err := netlist.Write(h, p.Circuit); err != nil {
		// sha256.digest never errors; a failure means the circuit is
		// structurally broken, which NewProblem has already excluded.
		panic(err)
	}
	for _, side := range bga.Sides() {
		q := p.Pkg.Quadrant(side)
		fmt.Fprintf(h, "quadrant %v rows=%d\n", side, q.NumRows())
		for y := q.NumRows(); y >= 1; y-- {
			for _, id := range q.Row(y).Nets {
				fmt.Fprintf(h, " %d", id)
			}
			fmt.Fprintln(h)
		}
	}
	fmt.Fprintf(h, "tiers=%d\n", p.Tiers)
	return hex.EncodeToString(h.Sum(nil))
}
