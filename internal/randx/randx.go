// Package randx provides deterministic, splittable pseudo-random number
// generation for the MPMB sampling algorithms.
//
// All samplers in this repository draw from randx rather than math/rand so
// that every experiment is reproducible from a single seed: a trial's
// stream can be derived from (seed, trial index) without any shared
// mutable state, which also makes parallel trials race-free by
// construction.
//
// The core generator is xoshiro256**, seeded through splitmix64 as
// recommended by its authors. On top of it the package offers the
// distributions the paper's workloads need: Bernoulli edge flips, uniform
// and normal weights, Zipf-distributed degrees, and alias-method weighted
// choice (used by the Karp-Luby estimator to pick a candidate butterfly
// proportionally to Pr[E(B_j\B_i)]).
package randx

import (
	"math"
)

// SplitMix64 advances a splitmix64 state and returns the next value.
// It is used to expand a single user seed into the four xoshiro words and
// to derive independent per-trial seeds.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. The zero value is not valid; construct
// with New or seed through DeriveInto. The four state words are named
// fields rather than an array so Uint64's state updates are plain field
// selectors — cheap enough for the compiler to inline the generator into
// sampling loops.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator deterministically seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	r.s0 = SplitMix64(&sm)
	r.s1 = SplitMix64(&sm)
	r.s2 = SplitMix64(&sm)
	r.s3 = SplitMix64(&sm)
	// xoshiro must not start from the all-zero state; splitmix64 output
	// of four consecutive values is never all zero, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
	return r
}

// Derive returns a new generator whose stream is independent of r's for
// all practical purposes, identified by id. It does not disturb r's state,
// so deriving per-trial generators is safe while r keeps producing values.
func (r *RNG) Derive(id uint64) *RNG {
	d := &RNG{}
	r.DeriveInto(id, d)
	return d
}

// DeriveInto seeds dst with exactly the state Derive(id) would return,
// without allocating. Trial kernels that derive one stream per trial reuse
// a single worker-local RNG through this method, so the per-trial setup is
// a few register operations instead of a heap allocation.
func (r *RNG) DeriveInto(id uint64, dst *RNG) {
	// Mix the current state with the id through splitmix64.
	sm := r.s0 ^ (r.s1 * 0x9e3779b97f4a7c15) ^ (id+1)*0xd1342543de82ef95
	dst.s0 = SplitMix64(&sm)
	dst.s1 = SplitMix64(&sm)
	dst.s2 = SplitMix64(&sm)
	dst.s3 = SplitMix64(&sm)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits. The rotations are
// spelled out with constant shifts (rather than through rotl) to keep the
// function within the compiler's inlining budget — sampling kernels call
// this once per undetermined edge, where a function call would dominate
// the draw itself.
func (r *RNG) Uint64() uint64 {
	s1 := r.s1
	x := s1 * 5
	x = (x<<7 | x>>57) * 9
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ s1
	r.s1 = s1 ^ s2
	r.s0 ^= s3
	r.s2 = s2 ^ s1<<17
	r.s3 = s3<<45 | s3>>19
	return x
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli reports true with probability p. Values p <= 0 are always
// false and p >= 1 always true, so edge probabilities of exactly 0 or 1
// behave deterministically (the hardness gadget relies on this).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Bernoulli threshold sentinels. BernoulliThreshold maps the
// deterministic probabilities to them; BernoulliThresholded consumes no
// random word for either, mirroring Bernoulli's p <= 0 / p >= 1 fast
// paths draw for draw.
const (
	// BernoulliNever is the threshold of p <= 0: always false, no draw.
	BernoulliNever uint64 = 0
	// BernoulliAlways is the threshold of p >= 1: always true, no draw.
	// It is unreachable for p in (0, 1), whose thresholds lie in
	// [1, 2^53].
	BernoulliAlways uint64 = ^uint64(0)
)

// BernoulliThreshold precomputes Bernoulli(p) as an integer threshold T
// such that, for one raw generator word u,
//
//	u>>11 < T  ⇔  Float64() < p
//
// bit for bit: Float64 is exactly (u>>11)·2⁻⁵³ (the shift keeps 53 bits
// and both the int→float conversion and the power-of-two division are
// exact), and p·2⁵³ is likewise exact for p in (0, 1), so the integer
// comparison against T = ⌈p·2⁵³⌉ reproduces the float comparison for
// every u. Sampling kernels precompute T once per edge and replace a
// float multiply-compare per draw with a shift and an integer compare —
// with a stream position identical to calling Bernoulli.
func BernoulliThreshold(p float64) uint64 {
	if p <= 0 {
		return BernoulliNever
	}
	if p >= 1 {
		return BernoulliAlways
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// BernoulliThresholded reports true with the probability encoded by a
// BernoulliThreshold value, consuming exactly the random words Bernoulli
// would for the same probability: none for the sentinels, one otherwise.
func (r *RNG) BernoulliThresholded(t uint64) bool {
	if t == BernoulliNever {
		return false
	}
	if t == BernoulliAlways {
		return true
	}
	return r.Uint64()>>11 < t
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("randx: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := -bound % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// UniformRange returns a uniform value in [lo, hi).
func (r *RNG) UniformRange(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the polar (Marsaglia) method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormalClamped draws Normal(mean, stddev) and clamps the result into
// [lo, hi]. The paper's Protein dataset synthesizes edge probabilities as
// Normal(0.5, 0.2) clipped into a valid probability range.
func (r *RNG) NormalClamped(mean, stddev, lo, hi float64) float64 {
	x := r.Normal(mean, stddev)
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Perm returns a uniformly random permutation of [0, n) via Fisher-Yates.
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
