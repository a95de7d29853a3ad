package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// TestMetropolisMatchesExp: the acceptance helper answers u < exp(x) for
// every draw u and exponent x, including where it skips math.Exp (x below
// −44 with u ≠ 0). The sweep crosses −44 ulp by ulp, Exp's subnormal edge
// (−708.4), its zero edge (−745.13), −Inf and NaN, for the zero draw, the
// smallest nonzero Float64 draw 2⁻⁶³, 2⁻⁵³, one half and seeded draws.
func TestMetropolisMatchesExp(t *testing.T) {
	us := []float64{0, 0x1p-63, 0x1p-53, 0.5}
	rng := rand.New(rand.NewSource(44))
	for k := 0; k < 16; k++ {
		us = append(us, rng.Float64())
	}
	var xs []float64
	for _, edge := range []float64{expCut, -708.4, -745.13, -745.1332191019412} {
		x := edge
		for k := 0; k < 4; k++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for k := 0; k < 9; k++ {
			xs = append(xs, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	for x := -800.0; x <= 0; x += 0.37 {
		xs = append(xs, x)
	}
	xs = append(xs, 0, math.Inf(-1), math.NaN(), -math.MaxFloat64, -math.SmallestNonzeroFloat64)
	for _, u := range us {
		for _, x := range xs {
			if got, want := metropolis(u, x), u < math.Exp(x); got != want {
				t.Errorf("metropolis(%g, %g) = %v, u < exp(x) is %v", u, x, got, want)
			}
		}
	}
	// The cut is exact only while exp(−44) stays below the smallest
	// nonzero draw.
	if e := math.Exp(expCut); e >= 0x1p-63 {
		t.Errorf("exp(%d) = %g is not below 2^-63", expCut, e)
	}
}
