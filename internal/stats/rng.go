// Package stats provides deterministic random number generation and
// lightweight statistical accumulators used across the simulator.
//
// The simulator must be fully reproducible: every stochastic component
// (workload generation, endurance sampling, tie breaking) draws from an
// explicitly seeded RNG so that two runs with the same core.Config produce
// byte-identical results. We implement SplitMix64 for seeding and
// xoshiro256** for the main stream, both public-domain algorithms, rather
// than math/rand, so the stream is stable across Go releases.
package stats

import "math"

// RNG is a deterministic xoshiro256** pseudo random number generator.
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, following the
// reference initialisation recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// Avoid the all-zero state, which is a fixed point.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

// splitmix64 advances the SplitMix64 state and returns (newState, output).
func splitmix64(state uint64) (uint64, uint64) {
	state += 0x9E3779B97F4A7C15
	z := state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0. It draws through Uint64n, so it rejects as Uint64n does.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed integer in [0, n), by modulo
// rejection: a draw at or above the largest multiple of n is redrawn.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("stats: Uint64n with zero n")
	}
	// Rejection sampling to remove modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to a float64 in [0, 1) on a 2^-53 grid.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Keyed returns the n-th draw of the counter-based stream keyed by key:
// a uniform float64 in [0, 1) and 64 further uniform bits. They are the
// SplitMix64 outputs at positions 2n+1 and 2n+2 of the sequence seeded
// with key, so every (key, n) has a draw of its own and no draw depends
// on another having been made.
func Keyed(key, n uint64) (u float64, bits uint64) {
	s, a := splitmix64(key + 2*n*0x9E3779B97F4A7C15)
	_, bits = splitmix64(s)
	return unit(a), bits
}

// Normal returns a sample from the normal distribution with the given mean
// and standard deviation, via the Marsaglia polar method.
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

// TruncNormal returns a normal sample truncated below at lo: a Normal
// sample, resampled while it lies below lo, and lo itself after 1024
// rejections in a row. It is the reference the NVM endurance stream is
// tested against.
func (r *RNG) TruncNormal(mean, stddev, lo float64) float64 {
	for i := 0; i < 1024; i++ {
		if v := r.Normal(mean, stddev); v >= lo {
			return v
		}
	}
	return lo
}
