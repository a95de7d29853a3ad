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

// asDraw rounds u to the grid of Float64 draws, the multiples of 2⁻⁶³.
func asDraw(u float64) float64 { return math.Round(u*0x1p63) * 0x1p-63 }

// drawsAround returns the draws nearest e: e itself and one ulp either
// side where those are draws (e ≥ 2⁻¹¹), else the grid points around it.
func drawsAround(e float64) []float64 {
	if e >= 0x1p-11 {
		return []float64{math.Nextafter(e, 0), e, math.Nextafter(e, 1)}
	}
	g := asDraw(e)
	return []float64{math.Max(g-0x1p-63, 0), g, g + 0x1p-63}
}

// TestMetropolisBracketMatchesExp: the bracketed test answers
// u < math.Exp(−Δ/T) for every draw u Float64 can return (0 or a multiple
// of 2⁻⁶³), move and temperature. It covers two million seeded (u, Δ, T)
// with −Δ/T spread over [−50, 0] and half the draws placed within 1e−8 of
// the threshold; the draws nearest math.Exp(−Δ/T) (the value itself and
// one ulp either side, where those are draws), with −Δ/T across the
// bracket cut −46, the exact path's cut −44, Exp's subnormal edge −708.4
// and its zero edge −745.13; Δ = +Inf and NaN; and subnormal
// temperatures, where 1/T overflows.
func TestMetropolisBracketMatchesExp(t *testing.T) {
	check := func(u, delta, temp float64) {
		t.Helper()
		got := accepts(u, delta, temp, invTemp(temp))
		if want := u < math.Exp(-delta/temp); got != want {
			t.Fatalf("accepts(u=%v, Δ=%v, T=%v) = %v, u < exp(−Δ/T) is %v", u, delta, temp, got, want)
		}
	}
	rng := rand.New(rand.NewSource(46))
	n := 2000000
	if testing.Short() {
		n = 200000
	}
	for k := 0; k < n; k++ {
		temp := math.Pow(10, -4*rng.Float64())
		delta := 50 * rng.Float64() * temp
		u := rng.Float64()
		if k%2 == 1 {
			u = asDraw(math.Exp(-delta/temp) * (1 + (2*rng.Float64()-1)*1e-8))
		}
		check(u, delta, temp)
	}
	var xs []float64
	for _, edge := range []float64{bracketCut, expCut, -708.4, -745.13, -745.1332191019412} {
		x := edge
		for k := 0; k < 4; k++ {
			x = math.Nextafter(x, math.Inf(-1))
		}
		for k := 0; k < 9; k++ {
			xs = append(xs, x)
			x = math.Nextafter(x, math.Inf(1))
		}
	}
	for x := -50.0; x < 0; x += 0.0137 {
		xs = append(xs, x)
	}
	for _, temp := range []float64{1, 0.05, 1e-4, 0.92 * 0.37, 1e-300} {
		for _, x := range xs {
			delta := -x * temp
			for _, u := range append(drawsAround(math.Exp(-delta/temp)), 0, 0x1p-63) {
				check(u, delta, temp)
			}
		}
	}
	for _, delta := range []float64{math.Inf(1), math.NaN(), math.MaxFloat64, math.SmallestNonzeroFloat64} {
		for _, temp := range []float64{1, 1e-4, math.SmallestNonzeroFloat64, 1e-310} {
			for _, u := range []float64{0, 0x1p-63, 0x1p-53, 0.5, 1 - 0x1p-53} {
				check(u, delta, temp)
			}
		}
	}
	// Subnormal temperatures with moves of comparable size, where −Δ/T is
	// moderate but 1/T overflows.
	for _, temp := range []float64{1e-310, 3e-320, math.SmallestNonzeroFloat64} {
		for _, ratio := range []float64{0.5, 1, 10, 44.5, 46.5} {
			delta := ratio * temp
			for _, u := range append(drawsAround(math.Exp(-delta/temp)), 0, 0x1p-63, 0.001, 0.5) {
				check(u, delta, temp)
			}
		}
	}
}

// TestApproxExpError: approxExp stays within 4e−11 of math.Exp over the
// bracket's range [−46, 0], which the bracket's 2⁻²⁸ band relies on.
func TestApproxExpError(t *testing.T) {
	worst := 0.0
	for x := float64(bracketCut); x <= 0; x += 0.000731 {
		if d := math.Abs(approxExp(x)/math.Exp(x) - 1); d > worst {
			worst = d
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), -math.SmallestNonzeroFloat64, bracketCut} {
		if d := math.Abs(approxExp(x)/math.Exp(x) - 1); d > worst {
			worst = d
		}
	}
	if worst > 4e-11 {
		t.Fatalf("approxExp relative error %g above 4e-11", worst)
	}
	t.Logf("worst relative error %.3g", worst)
}
