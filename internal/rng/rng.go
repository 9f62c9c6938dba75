// Package rng provides deterministic, seedable pseudo-random number
// generation for reproducible experiments. Item memories, synthetic
// genomes, and workload sweeps must all replay bit-identically from a
// seed, so the generators here are fully specified rather than delegated
// to math/rand's unspecified source.
//
// The core generator is xoshiro256** seeded through SplitMix64, the
// combination recommended by the xoshiro authors: SplitMix64 decorrelates
// weak user seeds before they reach the xoshiro state.
package rng

import "math/bits"

// SplitMix64 advances a SplitMix64 state and returns the next output.
// It is used both as a seed expander and as a cheap standalone stream.
func SplitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a xoshiro256** generator. The zero value is invalid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64 expansion.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		src.s[i] = SplitMix64(&sm)
	}
	// xoshiro256** requires a state that is not all zero; SplitMix64 of
	// any seed cannot yield four zero outputs, but guard regardless.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's multiply-shift rejection method to avoid modulo bias.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	threshold := (-un) % un
	for {
		hi, lo := bits.Mul64(s.Uint64(), un)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniformly random boolean.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Fork derives an independent child stream. Streams derived with distinct
// labels from the same parent are statistically independent, letting one
// experiment seed give every component its own reproducible stream.
func (s *Source) Fork(label uint64) *Source {
	mix := s.Uint64() ^ label*0x9e3779b97f4a7c15
	return New(mix)
}
