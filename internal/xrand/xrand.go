// Package xrand provides small, fast, deterministic pseudo-random number
// generators used throughout GraphWord2Vec.
//
// Reproducibility is a first-class requirement for the experiment harness:
// every training run, corpus generation, and negative-sampling stream is
// derived from an explicit 64-bit seed, so a run can be replayed bit-for-bit
// on any machine. The generators here are SplitMix64 (for seeding and cheap
// one-shot streams) and xoshiro256** (for bulk sampling). Both are public
// domain algorithms by Blackman & Vigna, reimplemented from the reference
// specification.
//
// None of the generators in this package are safe for concurrent use by
// multiple goroutines; callers create one per worker via Split.
package xrand

import (
	"math"
	"math/bits"
)

// SplitMix64 is a tiny 64-bit PRNG with a 64-bit state. It is primarily
// used to derive independent seeds for worker-local generators, and as the
// word2vec-style linear-congruential replacement inside tight loops.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64 random bits.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a xoshiro256** generator: fast, 256 bits of state, passes BigCrush.
type Rand struct {
	s [4]uint64
}

// New returns a generator deterministically seeded from seed via SplitMix64,
// as recommended by the xoshiro reference implementation.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets r to exactly the state New(seed) produces, without
// allocating — the engine's round loop reuses one generator per thread
// this way instead of allocating one per round.
func (r *Rand) Reseed(seed uint64) {
	sm := SplitMix64{state: seed}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// A theoretical all-zero state would be stuck; SplitMix64 cannot emit
	// four zero words in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// State returns the generator's raw 256-bit state, for checkpointing.
// SetState with the returned value reproduces the exact output stream.
func (r *Rand) State() [4]uint64 { return r.s }

// SetState restores a state captured by State. The all-zero state is a
// fixed point of xoshiro256** and is rejected with the same escape value
// Reseed uses, so a zeroed checkpoint cannot wedge the generator.
func (r *Rand) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		s[0] = 0x9e3779b97f4a7c15
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next is one xoshiro256** step over a state held in values: it returns
// the output and the successor state. Rand.Uint64 and the batch loops
// (Alias.DrawExcluding) share it, so a loop that keeps the state in
// locals emits exactly the stream Uint64 calls would.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	var x uint64
	x, r.s[0], r.s[1], r.s[2], r.s[3] = next(r.s[0], r.s[1], r.s[2], r.s[3])
	return x
}

// Split derives a new, statistically independent generator from r.
// It is used to hand one generator to each worker goroutine.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		if i, ok := lemire(r.Uint64(), bound); ok {
			return int(i)
		}
	}
}

// lemire maps 64 random bits x onto [0, bound) by Lemire's
// multiply-shift method, reporting ok=false when x falls in the biased
// sliver and must be redrawn. The modulo runs only for a low product
// below bound, which almost never happens.
func lemire(x, bound uint64) (i uint64, ok bool) {
	hi, lo := bits.Mul64(x, bound)
	return hi, lo >= bound || lo >= (-bound)%bound
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return unitFloat64(r.Uint64()) }

// unitFloat64 maps 64 random bits to a uniform float64 in [0, 1).
func unitFloat64(x uint64) float64 { return float64(x>>11) * (1.0 / (1 << 53)) }

// Float32 returns a uniform float32 in [0, 1).
func (r *Rand) Float32() float32 {
	return float32(r.Uint64()>>40) * (1.0 / (1 << 24))
}

// NormFloat64 returns a standard normal variate using the polar
// Box-Muller transform. It is not the fastest method but has no tables and
// is only used during model initialisation and corpus synthesis.
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomises the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
