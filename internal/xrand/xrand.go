// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used by every stochastic module in the toolkit.
//
// All experiments in the paper are averaged over repeated runs; to make every
// run of this reproduction exactly repeatable, modules never touch the global
// math/rand state. Instead they accept an explicit 64-bit seed and derive an
// xrand.RNG from it. The generator is xoshiro256**, seeded through splitmix64,
// which is the standard, well-distributed way to expand a single word seed.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a deterministic random number generator (xoshiro256**).
// The zero value is not usable; construct with New.
//
// The state is four named words rather than an array so that a copy of an
// RNG is SSA-able: a loop that steps a local copy with Next keeps all four
// words in registers.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x and returns the next splitmix64 output.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns an RNG seeded from the given seed.
// Distinct seeds yield statistically independent streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets r in place to the state New(seed) would start from,
// without allocating. Hot loops that would otherwise construct a fresh
// generator per item can hold one RNG and reseed it; the resulting stream
// is bit-identical to New's.
func (r *RNG) Reseed(seed uint64) {
	r.s0 = splitmix64(&seed)
	r.s1 = splitmix64(&seed)
	r.s2 = splitmix64(&seed)
	r.s3 = splitmix64(&seed)
	// xoshiro must not be seeded with the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Derive returns a new RNG whose stream is a deterministic function of the
// parent seed and the given stream identifier. It is used to hand independent
// generators to parallel workers without sharing state.
func Derive(seed, stream uint64) *RNG {
	r := &RNG{}
	r.ReseedDerive(seed, stream)
	return r
}

// ReseedDerive resets r in place to the state Derive(seed, stream) would
// start from, without allocating; the stream is bit-identical to Derive's.
func (r *RNG) ReseedDerive(seed, stream uint64) {
	mixed := seed
	_ = splitmix64(&mixed)
	mixed ^= 0xd1342543de82ef95 * (stream + 1)
	r.Reseed(mixed)
}

// Next returns the value Uint64 would return and the state after that
// draw, leaving r itself unchanged. A hot loop copies the generator into a
// local, steps the copy with Next and stores it back once at the end; the
// draws are the ones the same number of Uint64 calls would make.
func (r RNG) Next() (uint64, RNG) {
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ r.s1
	return bits.RotateLeft64(r.s1*5, 7) * 9,
		RNG{r.s0 ^ s3, r.s1 ^ s2, s2 ^ r.s1<<17, bits.RotateLeft64(s3, 45)}
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	x, next := r.Next()
	*r = next
	return x
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Threshold returns the integer form of the comparison Float64() < p: for
// the draw x that Float64 consumes, Float64() < p holds exactly when
// x>>11 < Threshold(p). Float64 is m·2⁻⁵³ with m = x>>11 < 2⁵³, and for
// 0 < p < 1 the product p·2⁵³ is exact (scaling by a power of two), so
// m < p·2⁵³ is m < ⌈p·2⁵³⌉ for integer m. Every p ≥ 1 exceeds every draw and
// gives 2⁵³; p ≤ 0 and NaN exceed none and give 0.
func Threshold(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0
}

// Bool returns true with probability p. It draws only when 0 < p < 1 or p
// is NaN (a draw that returns false); p <= 0 and p >= 1 decide without one.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal deviate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Poisson returns a Poisson-distributed value with mean lambda.
// For large lambda it falls back to a normal approximation, which is
// sufficient for sequencing-coverage sampling.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Geometric returns a geometrically distributed value k >= 1 with success
// probability p, i.e. P(k) = (1-p)^(k-1) p. Used for error-burst lengths.
func (r *RNG) Geometric(p float64) int {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		return 1
	}
	k := 1
	for !r.Bool(p) {
		k++
		if k > 1<<20 { // safety bound; unreachable for sane p
			return k
		}
	}
	return k
}

// Keystream fills dst with a deterministic byte stream derived from seed.
// It is used by the codec's randomizing scrambler: XORing a payload with
// Keystream(seed) twice restores the payload.
func Keystream(seed uint64, dst []byte) {
	x := seed
	var w uint64
	for i := range dst {
		if i%8 == 0 {
			w = splitmix64(&x)
		}
		dst[i] = byte(w >> (8 * uint(i%8)))
	}
}
