package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandMatchesMathRand: Rand replays rand.New(rand.NewSource(seed)) draw
// for draw. Every draw method is interleaved by a fixed pattern over
// 5000 rounds (each makes two to five source draws, so the register is
// refilled dozens of times), with Intn at powers of two, at sizes whose
// rejection bound bites and beyond 31 bits. The seeds cover zero (which
// math/rand maps to its own constant), negatives, small and large values
// and the int32 modulus edges of its seeding.
func TestRandMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, 2, 7, -1, -20260806, 1<<31 - 1, 1 << 31, 1<<31 - 2, 1 << 40, math.MaxInt64, math.MinInt64}
	sizes := []int{1, 2, 3, 5, 64, 89, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<62 + 1, math.MaxInt64}
	for _, seed := range seeds {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		draws := 0
		for k := 0; k < 5000; k++ {
			switch k % 5 {
			case 0:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d op %d: Int63 %d, math/rand %d", seed, k, g, w)
				}
				draws++
			case 1:
				if g, w := got.Int31(), want.Int31(); g != w {
					t.Fatalf("seed %d op %d: Int31 %d, math/rand %d", seed, k, g, w)
				}
				draws++
			case 2:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d op %d: Float64 %v, math/rand %v", seed, k, g, w)
				}
				draws++
			case 3:
				n := sizes[(k/5)%len(sizes)]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d op %d: Intn(%d) %d, math/rand %d", seed, k, n, g, w)
				}
				draws++
			case 4:
				n := int32(sizes[(k/5)%4+4])
				if g, w := got.Int31n(n), want.Int31n(n); g != w {
					t.Fatalf("seed %d op %d: Int31n(%d) %d, math/rand %d", seed, k, n, g, w)
				}
				draws++
			}
		}
		// The streams end at one position: the next raw words agree.
		for k := 0; k < 2*randLen; k++ {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: word %d after the mixed draws: %d, math/rand %d", seed, k, g, w)
			}
		}
		if draws < 5*randLen {
			t.Fatalf("seed %d: %d draw calls cover fewer than five refills", seed, draws)
		}
	}
}

// TestRandPanicsLikeMathRand: a non-positive size panics, as in math/rand.
func TestRandPanicsLikeMathRand(t *testing.T) {
	for name, draw := range map[string]func(*Rand){
		"Intn(0)":   func(r *Rand) { r.Intn(0) },
		"Intn(-3)":  func(r *Rand) { r.Intn(-3) },
		"Int31n(0)": func(r *Rand) { r.Int31n(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			draw(NewRand(1))
		}()
	}
}
