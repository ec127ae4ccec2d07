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
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
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

// State returns the generator's state; SetState resumes the stream from
// it.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState puts the generator in state s, so a value RNG can resume a
// stream saved by State without allocating. The all-zero state is
// replaced as in NewRNG.
func (r *RNG) SetState(s [4]uint64) {
	r.s = s
	if s[0]|s[1]|s[2]|s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
}

// Normal returns a sample from the normal distribution with the given mean
// and standard deviation, via the Marsaglia polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return polar(mean, stddev, u, s)
		}
	}
}

// polar turns a polar-method pair (u, v) with s = u²+v² in (0, 1) into a
// normal sample. Normal, TruncNormals and SkipTruncNormal share it, so
// all compute every value they compare bit for bit alike.
func polar(mean, stddev, u, s float64) float64 {
	return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
}

// TruncNormal returns a normal sample truncated below at lo, by resampling.
// It is used for endurance limits, which are physically non-negative.
// It is TruncNormals' one-element case.
func (r *RNG) TruncNormal(mean, stddev, lo float64) float64 {
	var v [1]float64
	r.TruncNormals(v[:], mean, stddev, lo)
	return v[0]
}

// truncBatch is the number of polar pairs TruncNormals evaluates in one
// go.
const truncBatch = 64

// oneBits is the bit pattern of 1.0.
const oneBits = 0x3FF0000000000000

// TruncNormals fills dst with len(dst) successive TruncNormal draws: each
// a Normal sample, resampled while it lies below lo, and lo itself after
// 1024 rejections in a row.
//
// It draws in batches. A batch first collects as many polar-accepted
// pairs (u, s) as dst has values left to fill, then evaluates their
// samples in a separate loop, so the Log, Sqrt and division of one
// sample need not wait for the next pair. A pair yields at most one
// value, so a batch never draws a pair a draw-by-draw loop would not
// have drawn: the values and the generator's final state are the
// draw-by-draw ones.
func (r *RNG) TruncNormals(dst []float64, mean, stddev, lo float64) {
	var us, ss [truncBatch]float64
	rejected := 0 // rejections of the value dst[0] is waiting for
	for len(dst) > 0 {
		n := min(len(dst), truncBatch)
		s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
		for k := 0; k < n; {
			var a, b uint64
			a, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			b, s0, s1, s2, s3 = step(s0, s1, s2, s3)
			u := 2*unit(a) - 1
			v := 2*unit(b) - 1
			s := u*u + v*v
			// Store every pair and keep it by moving k, without a
			// branch: s ≥ 0, so 0 < s < 1 exactly when its bits x
			// have 1 ≤ x < bits(1), read off two sign bits.
			us[k], ss[k] = u, s
			x := int64(math.Float64bits(s))
			k += int(uint64(^(x-1)&(x-oneBits)) >> 63)
		}
		r.s = [4]uint64{s0, s1, s2, s3}
		for k := range n {
			us[k] = polar(mean, stddev, us[k], ss[k])
		}
		j := 0
		for _, x := range us[:n] {
			if x >= lo {
				dst[j] = x
				j, rejected = j+1, 0
			} else if rejected++; rejected == 1024 {
				dst[j] = lo
				j, rejected = j+1, 0
			}
		}
		dst = dst[j:]
	}
}

// SkipTruncNormal advances r past n TruncNormal(mean, stddev, lo) draws,
// leaving it in exactly the state those draws leave it in, and returns a
// lower bound on the smallest of them (+Inf for n = 0).
//
// It skips the costly part of most draws. A polar-method sample is
// mean + stddev·u·sqrt(−2 ln s / s) with u² ≤ s, so it lies within
// stddev·sqrt(−2 ln s) of mean. When s ≥ exp(−k²/2) with
// k = (mean−lo)/stddev, the sample is therefore at least lo and
// TruncNormal keeps it, whatever its value; only a draw with a smaller
// s needs its value for the v ≥ lo test. The smallest s of the samples
// kept unseen bounds them all from below; a sample tested exactly counts
// with its value. Both thresholds carry a relative margin far above the
// rounding error of the formulas, so the skip never keeps a draw
// TruncNormal would reject and the bound never exceeds a draw.
func (r *RNG) SkipTruncNormal(n int, mean, stddev, lo float64) float64 {
	sd := math.Abs(stddev)
	// sFast is the s at and above which a sample is kept unseen; 2 is
	// above every s, so each draw takes the exact test. The fast test
	// needs mean above lo by more than about 1e-3 sd: closer in, exp's
	// rounding near 1 is no longer small against k²/2.
	sFast := 2.0
	if k := (mean - lo) / sd; k > 0 && k*k/2 >= 1e-6 {
		sFast = math.Exp(-k * k / 2 * (1 - 1e-6))
	}
	// A pair with s ≥ sFast is kept unseen exactly when s < 1; the max
	// keeps s = 0 (rejected by the polar method) out of that test.
	sFast = max(sFast, math.SmallestNonzeroFloat64)
	sMin := 1.0        // smallest s of a sample kept unseen
	low := math.Inf(1) // smallest sample kept after the exact test
	// rejected counts the exact-test rejections of draw rejKept.
	rejected, rejKept := 0, -1
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for kept := 0; kept < n; {
		var a, b uint64
		a, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		b, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		u := 2*unit(a) - 1
		v := 2*unit(b) - 1
		s := u*u + v*v
		if s >= sFast {
			// The common case, without a branch on s < 1: sMin
			// ignores s ≥ 1, as it starts at 1.
			if s < 1 {
				kept++
			}
			sMin = min(sMin, s)
			continue
		}
		if !(s > 0 && s < 1) {
			continue // Normal's own retry
		}
		if x := polar(mean, stddev, u, s); x >= lo {
			low = min(low, x)
			kept++
			continue
		}
		if rejKept != kept {
			rejected, rejKept = 0, kept
		}
		if rejected++; rejected == 1024 {
			low = min(low, lo) // TruncNormal's fallback
			kept++
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	if sMin < 1 {
		low = min(low, mean-sd*math.Sqrt(-2*math.Log(sMin))*(1+1e-9))
	}
	// Every draw is at least lo.
	return max(low, lo)
}

// step is one xoshiro256** step on a state held in locals: it returns
// Uint64's output and the next state.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
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
