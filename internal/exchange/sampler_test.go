package exchange

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"copack/internal/assign"
	"copack/internal/design"
	"copack/internal/netlist"
)

// unequalDesign is a 2-D design whose quadrants differ in size: bottom has
// 10 fingers (3 power pads), right 4 (2 power), top 1 (a power pad with no
// neighbor to swap with) and left 2 (none).
const unequalDesign = `circuit uneq
net P0 power
net P1 power
net P2 power
net P3 power
net P4 power
net P5 power
net S0 signal
net S1 signal
net S2 signal
net S3 signal
net S4 signal
net S5 signal
net S6 signal
net S7 signal
net S8 signal
net S9 signal
net G0 ground
package uneq
spec ball 0.2 2 via 0.1
spec finger 0.025 0.4 0.025
spec rows 2
tiers 1
quadrant bottom
row S0 P0 S1 G0 -
row P1 S2 S3 S4 P2 S7 -
quadrant right
row P3 -
row S5 P5 S6 -
quadrant top
row -
row P4 -
quadrant left
row S8 -
row S9 -
`

// designState parses a design and builds an annealing state over its DFA
// order with the default options.
func designState(t *testing.T, text string) *state {
	t.Helper()
	p, err := design.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assign.DFA(p, assign.DFAOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return newState(p, a, Options{}.withDefaults(p), nil)
}

// chiSquare999 is the Wilson–Hilferty approximation of the 0.999 quantile
// of the chi-square distribution with df degrees of freedom.
func chiSquare999(df int) float64 {
	const z = 3.0902 // the standard normal 0.999 quantile
	v := 2 / (9 * float64(df))
	return float64(df) * math.Pow(1-v+z*math.Sqrt(v), 3)
}

// TestPickSlotUniformOverPowerPads: at ψ = 1 the sampler draws one power
// pad uniformly (Fig 14's "randomly choose one power pad"). Over 200k
// draws, with committed moves in between so the pads keep moving, it must
// never return a non-power pad, must report a pad on a side with fewer
// than 2 slots as infeasible, and must hit every power pad with counts
// that pass a chi-square test of uniformity at the 0.999 level — on a
// Table 1 instance and on a design whose quadrants differ in size (where
// picking a side first would favor the pads of small sides).
func TestPickSlotUniformOverPowerPads(t *testing.T) {
	cases := []struct {
		name  string
		st    *state
		sizes []int // quadrant sizes in side order; nil skips the check
	}{
		{"table1_circuit3", newTestState(t, 2, 1, 1, Options{}), nil},
		{"unequal", designState(t, unequalDesign), []int{10, 4, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.st
			if tc.sizes != nil {
				for side, slots := range st.a.Slots {
					if len(slots) != tc.sizes[side] {
						t.Fatalf("side %d has %d slots, want %d", side, len(slots), tc.sizes[side])
					}
				}
			}
			rng := rand.New(rand.NewSource(5))
			moves := rand.New(rand.NewSource(6))
			const draws = 200000
			counts := make(map[netlist.ID]int)
			for k := 0; k < draws; k++ {
				side, i, ok := st.pickSlot(rng)
				slots := st.a.Slots[side]
				if i < 1 || i > len(slots) {
					t.Fatalf("draw %d: slot %d outside %v's 1..%d", k, i, side, len(slots))
				}
				id := slots[i-1]
				if c := st.p.Circuit.Net(id).Class; c != netlist.Power {
					t.Fatalf("draw %d: picked %v slot %d holding a %v net", k, side, i, c)
				}
				if ok != (len(slots) >= 2) {
					t.Fatalf("draw %d: ok = %v for a pad on a %d-slot side", k, ok, len(slots))
				}
				counts[id]++
				if k%64 == 0 {
					if _, ok := st.PriceMove(moves); ok {
						st.CommitMove()
					}
				}
			}
			checkLocate(t, st, draws)
			var power []netlist.ID
			for id := netlist.ID(0); int(id) < st.p.Circuit.NumNets(); id++ {
				if st.p.Circuit.Net(id).Class == netlist.Power {
					power = append(power, id)
				}
			}
			want := float64(draws) / float64(len(power))
			chi2 := 0.0
			for _, id := range power {
				if counts[id] == 0 {
					t.Fatalf("power net %d never drawn", id)
				}
				d := float64(counts[id]) - want
				chi2 += d * d / want
			}
			if bound := chiSquare999(len(power) - 1); chi2 > bound {
				t.Fatalf("chi-square %.1f over %d power pads exceeds the 0.999 bound %.1f", chi2, len(power), bound)
			}
		})
	}
}

// TestPickSlotNoWatchedPad: a ψ = 1 state with no watched pad has nothing
// to move, so every proposal is infeasible and the sampler draws nothing
// from the rng.
func TestPickSlotNoWatchedPad(t *testing.T) {
	st := designState(t, strings.ReplaceAll(unequalDesign, " power\n", " signal\n"))
	if n := len(st.trk.supplyIdx); n != 0 {
		t.Fatalf("supply list holds %d pads, want 0", n)
	}
	rng := rand.New(rand.NewSource(3))
	for k := 0; k < 100; k++ {
		if _, ok := st.PriceMove(rng); ok {
			t.Fatalf("proposal %d priced with no watched pad", k)
		}
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(3)).Int63(); got != want {
		t.Fatalf("the rng was consumed: next value %d, fresh stream %d", got, want)
	}
}

// TestFixedIntnMatchesIntn: a fixed-n sampler returns what rand.Rand.Intn(n)
// returns, draw for draw, and leaves the source where Intn leaves it — for
// powers of two (one masked draw), for sizes whose rejection bound almost
// never bites, and for 2³⁰+1, where about half the draws are rejected.
func TestFixedIntnMatchesIntn(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 24, 89, 112, 1<<20 + 1, 1<<30 + 1, 1<<31 - 1} {
		s := newFixedIntn(n)
		for seed := int64(1); seed <= 3; seed++ {
			got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for k := 0; k < 2000; k++ {
				if g, w := s.draw(got), want.Intn(n); g != w {
					t.Fatalf("n=%d seed %d draw %d: %d, Intn gives %d", n, seed, k, g, w)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("n=%d seed %d: the source is at a different position after 2000 draws", n, seed)
			}
		}
		// The remainder without a division, at the edges of its range.
		n32 := int32(n)
		for _, v := range []int32{0, 1, n32 - 1, n32, n32 + 1, 2*n32 - 1, s.max, math.MaxInt32 - 1, math.MaxInt32} {
			if v < 0 {
				continue // 2n or n+1 overflowed int32
			}
			if got, want := s.rem(v), int(v%n32); got != want {
				t.Fatalf("n=%d: rem(%d) = %d, want %d", n, v, got, want)
			}
		}
	}
}

// newFixedIntn refuses the sizes Intn does not draw through Int31n.
func TestFixedIntnRejectsSizes(t *testing.T) {
	for _, n := range []int{0, -1, 1 << 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("newFixedIntn(%d) did not panic", n)
				}
			}()
			newFixedIntn(n)
		}()
	}
}
