package anneal

import "math/rand"

// Rand is the annealer's random stream: it returns exactly what
// rand.New(rand.NewSource(seed)) returns, draw for draw, but as a concrete
// type whose draws inline, so a draw is a few loads and an add instead of
// a call through the rand.Source interface. The move loop makes two to
// four draws per move.
//
// math/rand's default source is an additive lagged-Fibonacci generator
// over a 607-word register. Each output is the sum of the words under two
// cursors, stored back under the first, so the outputs obey
// x[n] = x[n−607] + x[n−273] mod 2⁶⁴, and Int63 keeps their low 63 bits.
// Carries only run upward, so the low 63 bits follow the same steps
// mod 2⁶³ on their own, and Rand keeps only those. The seeded register is
// private to math/rand; NewRand recovers it from the source's first 607
// Int63 outputs, and Int63 then steps it as the source does.
type Rand struct {
	tap, feed int
	vec       [randLen]int64
}

const (
	randLen  = 607 // the generator's register length
	randTap  = 273 // its short lag
	randMask = 1<<63 - 1
)

// NewRand returns the stream of rand.New(rand.NewSource(seed)).
func NewRand(seed int64) *Rand {
	src := rand.NewSource(seed)
	var y [randLen]int64
	for t := range y {
		y[t] = src.Int63()
	}
	// Output t (from 0) adds the seeded word under the feed cursor,
	// at feedAt(t), to the word under the tap cursor, at 606 − t. The
	// tap word is output t − 273 once t ≥ 273 (the feed cursor wrote it
	// there at step t − 273) and a seeded word before that, at a
	// position the first loop has already recovered.
	r := &Rand{tap: 0, feed: randLen - randTap}
	for t := randTap; t < randLen; t++ {
		r.vec[feedAt(t)] = (y[t] - y[t-randTap]) & randMask
	}
	for t := 0; t < randTap; t++ {
		r.vec[feedAt(t)] = (y[t] - r.vec[randLen-1-t]) & randMask
	}
	return r
}

// feedAt is the feed cursor's position at output t < 607: it starts at
// 334 and steps down before each output, wrapping at 0.
func feedAt(t int) int { return (2*randLen - randTap - 1 - t) % randLen }

// Int63 is rand.Rand.Int63: a non-negative 63-bit integer. It steps the
// register as math/rand's source does.
func (r *Rand) Int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += randLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += randLen
	}
	x := (r.vec[r.feed] + r.vec[r.tap]) & randMask
	r.vec[r.feed] = x
	return x
}

// Int31 is rand.Rand.Int31: the top 31 bits of one Int63 draw.
func (r *Rand) Int31() int32 { return int32(r.Int63() >> 32) }

// Float64 is rand.Rand.Float64: Int63/2⁶³, drawn again in the rare case
// that the division rounds up to 1.
func (r *Rand) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Intn is rand.Rand.Intn: uniform in [0, n), through Int31n when n fits
// in 31 bits and int63n otherwise. It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		return int(r.Int31n(int32(n)))
	}
	return int(r.int63n(int64(n)))
}

// Int31n is rand.Rand.Int31n: a masked draw when n is a power of two,
// else Int31 draws rejected above the largest multiple of n, reduced mod n.
// It panics if n <= 0.
func (r *Rand) Int31n(n int32) int32 {
	if n <= 0 {
		panic("invalid argument to Int31n")
	}
	if n&(n-1) == 0 {
		return r.Int31() & (n - 1)
	}
	max := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	v := r.Int31()
	for v > max {
		v = r.Int31()
	}
	return v % n
}

// int63n is rand.Rand.Int63n for n > 0, the 64-bit arm of Intn.
func (r *Rand) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}
