// Package workload generates synthetic memory-access traces that stand in
// for the paper's SPEC CPU 2006/2017 applications. Each application model
// combines an access-pattern mixture (looping reads, streaming, a hot
// read-write set, random accesses) with a value generator whose BDI
// compression-class distribution matches the application's bar in Fig. 2.
// The real BDI compressor runs on the generated bytes, so every
// compression-dependent policy decision is exercised end to end.
package workload

import (
	"encoding/binary"
	"fmt"
)

// Class is a content compressibility class used by the generators.
type Class uint8

// Content classes. Zeros and HCR both land below the HCR limit; LCR lands
// in (37, 64); Incompressible yields BDI-uncompressible bytes.
const (
	ClassZeros Class = iota
	ClassHCR
	ClassLCR
	ClassIncompressible
)

// Profile parameterises one synthetic application.
type Profile struct {
	Name string

	// FootprintBlocks is the number of distinct 64-byte blocks the
	// application touches. ScaleFootprint rescales it for smaller LLCs.
	FootprintBlocks int

	// Access-pattern mixture; fractions must sum to 1.
	LoopFrac   float64 // cyclic read loop over LoopBlocks (loop blocks)
	StreamFrac float64 // sequential sweep over the footprint (thrashing)
	HotFrac    float64 // random accesses in a small hot read-write set
	RandFrac   float64 // uniform random over the footprint
	SkewFrac   float64 // zipfian-skewed accesses over the footprint (hot sets)

	LoopBlocks      int     // loop working-set size
	HotBlocks       int     // hot-set size
	HotWriteFrac    float64 // store probability in the hot component
	StreamWriteFrac float64 // store probability in the stream component
	RandWriteFrac   float64 // store probability in the random component
	SkewWriteFrac   float64 // store probability in the skew component

	// SkewTheta shapes the skew component's chunk distribution. The
	// footprint is treated as SkewChunks interleaved chunks (chunk =
	// block index mod SkewChunks); the chunk index is drawn as
	// floor(U^theta · SkewChunks), so P(chunk < c) =
	// (c/SkewChunks)^(1/theta) — a zipf-like head concentrating traffic
	// on the lowest chunk numbers, uniformly over a chunk's blocks. One
	// chunk aliases onto a small fixed group of LLC sets (and app bases
	// are multiples of the power-of-two AppSpacing, so every app's head
	// lands on the same groups), while holding far more blocks than a
	// set has ways: the hot sets churn instead of caching — deliberate
	// inter-set wear pressure the wear coloring exists to flatten.
	// Must be >= 1 when any phase has SkewFrac > 0; theta 4-6 gives a
	// pronounced hot-set head.
	SkewTheta float64

	// Synthetic marks profiles that are not part of the paper's Table V
	// application set (the skewed-tenant scenarios). Paper-reproduction
	// figures (Fig. 2 compression profile, the per-app study) skip them.
	Synthetic bool

	// SkewBand restricts the zipf draw to the first SkewBand chunks
	// (0 = the full SkewChunks range): chunk = floor(U^theta ·
	// SkewBand). A band much narrower than SkewChunks leaves the
	// remaining chunks' sets with only the profile's uniform background
	// traffic — a genuinely cold region, the page-coloring-conflict
	// shape. Must be in [0, SkewChunks] when any phase has SkewFrac > 0.
	SkewBand int

	// SkewOffset rotates the profile's zipf band to a different chunk
	// range: chunk = (draw + SkewOffset) mod SkewChunks. Staggering
	// tenants across bands models page-coloring-partitioned tenants
	// whose combined hot bands cover most of the cache's sets. Must be
	// in [0, SkewChunks) when any phase has SkewFrac > 0.
	SkewOffset int

	// GapMean is the mean number of non-memory instructions between
	// consecutive memory accesses.
	GapMean int

	// Phases optionally lists alternative pattern mixtures the
	// application cycles through (after the base mixture above), staying
	// PhaseLen accesses in each. Real applications exhibit exactly this
	// time-varying behaviour, which is what makes the paper's runtime
	// CPth adaptation (§IV-C) pay off over any fixed threshold.
	Phases   []PatternMix
	PhaseLen int

	// Compression-class fractions over the footprint (Fig. 2); the
	// remainder is incompressible.
	ZeroFrac float64
	HCRFrac  float64
	LCRFrac  float64
}

// PatternMix is one access-pattern mixture of a phased application.
type PatternMix struct {
	LoopFrac, StreamFrac, HotFrac, RandFrac, SkewFrac           float64
	HotWriteFrac, StreamWriteFrac, RandWriteFrac, SkewWriteFrac float64
}

// BaseMix returns the profile's base pattern mixture (phase 0).
func (p *Profile) BaseMix() PatternMix {
	return PatternMix{
		LoopFrac: p.LoopFrac, StreamFrac: p.StreamFrac,
		HotFrac: p.HotFrac, RandFrac: p.RandFrac, SkewFrac: p.SkewFrac,
		HotWriteFrac: p.HotWriteFrac, StreamWriteFrac: p.StreamWriteFrac,
		RandWriteFrac: p.RandWriteFrac, SkewWriteFrac: p.SkewWriteFrac,
	}
}

func (m *PatternMix) validate(name string, idx int) error {
	sum := m.LoopFrac + m.StreamFrac + m.HotFrac + m.RandFrac + m.SkewFrac
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %s phase %d: pattern fractions sum to %v", name, idx, sum)
	}
	for _, w := range []float64{m.HotWriteFrac, m.StreamWriteFrac, m.RandWriteFrac, m.SkewWriteFrac} {
		if w < 0 || w > 1 {
			return fmt.Errorf("workload %s phase %d: write fraction %v out of [0,1]", name, idx, w)
		}
	}
	return nil
}

// Validate checks internal consistency.
func (p *Profile) Validate() error {
	sum := p.LoopFrac + p.StreamFrac + p.HotFrac + p.RandFrac + p.SkewFrac
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %s: pattern fractions sum to %v", p.Name, sum)
	}
	skewed := p.SkewFrac > 0
	for i := range p.Phases {
		if err := p.Phases[i].validate(p.Name, i+1); err != nil {
			return err
		}
		skewed = skewed || p.Phases[i].SkewFrac > 0
	}
	if skewed && (p.SkewOffset < 0 || p.SkewOffset >= SkewChunks) {
		return fmt.Errorf("workload %s: SkewOffset %d outside [0,%d)", p.Name, p.SkewOffset, SkewChunks)
	}
	if skewed && (p.SkewBand < 0 || p.SkewBand > SkewChunks) {
		return fmt.Errorf("workload %s: SkewBand %d outside [0,%d]", p.Name, p.SkewBand, SkewChunks)
	}
	if skewed && p.SkewTheta < 1 {
		return fmt.Errorf("workload %s: skewed phases need SkewTheta >= 1, got %v", p.Name, p.SkewTheta)
	}
	if len(p.Phases) > 0 && p.PhaseLen <= 0 {
		return fmt.Errorf("workload %s: phases declared without a positive PhaseLen", p.Name)
	}
	if c := p.ZeroFrac + p.HCRFrac + p.LCRFrac; c > 1.001 {
		return fmt.Errorf("workload %s: class fractions sum to %v > 1", p.Name, c)
	}
	if p.FootprintBlocks <= 0 || p.LoopBlocks <= 0 || p.HotBlocks <= 0 {
		return fmt.Errorf("workload %s: non-positive sizes", p.Name)
	}
	if p.LoopBlocks > p.FootprintBlocks || p.HotBlocks > p.FootprintBlocks {
		return fmt.Errorf("workload %s: working sets exceed footprint", p.Name)
	}
	if p.GapMean <= 0 {
		return fmt.Errorf("workload %s: non-positive gap", p.Name)
	}
	return nil
}

// Scale returns a copy of the profile with its footprint and working sets
// multiplied by f (used to match scaled-down cache sizes).
func (p Profile) Scale(f float64) Profile {
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 16 {
			v = 16
		}
		return v
	}
	p.FootprintBlocks = scale(p.FootprintBlocks)
	p.LoopBlocks = scale(p.LoopBlocks)
	p.HotBlocks = scale(p.HotBlocks)
	return p
}

// Profiles returns the model for each SPEC application used in Table V.
// Footprints are sized for the scaled 1 MB LLC (16384 blocks): memory-
// intensive applications overflow it severalfold, as in the paper's
// selection of high-MPKI benchmarks. Compression-class fractions follow
// Fig. 2: e.g. GemsFDTD06/zeusmp06 almost fully compressible, xz17/milc06
// incompressible.
func Profiles() map[string]Profile {
	ps := []Profile{
		{Name: "zeusmp06", FootprintBlocks: 32768, LoopFrac: 0.45, StreamFrac: 0.30, HotFrac: 0.15, RandFrac: 0.10,
			LoopBlocks: 6000, HotBlocks: 600, HotWriteFrac: 0.5, StreamWriteFrac: 0.3, RandWriteFrac: 0.1,
			GapMean: 10, ZeroFrac: 0.15, HCRFrac: 0.72, LCRFrac: 0.08},
		{Name: "gobmk06", FootprintBlocks: 12288, LoopFrac: 0.35, StreamFrac: 0.10, HotFrac: 0.35, RandFrac: 0.20,
			LoopBlocks: 3000, HotBlocks: 800, HotWriteFrac: 0.45, StreamWriteFrac: 0.2, RandWriteFrac: 0.15,
			GapMean: 16, ZeroFrac: 0.10, HCRFrac: 0.42, LCRFrac: 0.18},
		{Name: "dealII06", FootprintBlocks: 24576, LoopFrac: 0.40, StreamFrac: 0.25, HotFrac: 0.20, RandFrac: 0.15,
			LoopBlocks: 5000, HotBlocks: 700, HotWriteFrac: 0.4, StreamWriteFrac: 0.25, RandWriteFrac: 0.1,
			GapMean: 12, ZeroFrac: 0.08, HCRFrac: 0.34, LCRFrac: 0.26},
		{Name: "bzip206", FootprintBlocks: 20480, LoopFrac: 0.30, StreamFrac: 0.35, HotFrac: 0.20, RandFrac: 0.15,
			LoopBlocks: 4000, HotBlocks: 900, HotWriteFrac: 0.55, StreamWriteFrac: 0.35, RandWriteFrac: 0.2,
			GapMean: 9, ZeroFrac: 0.06, HCRFrac: 0.36, LCRFrac: 0.20,
			// bzip2 alternates compression (stream-read, hot-write) and
			// decompression (loop-heavy) stages.
			PhaseLen: 180_000, Phases: []PatternMix{
				{LoopFrac: 0.55, StreamFrac: 0.20, HotFrac: 0.15, RandFrac: 0.10,
					HotWriteFrac: 0.3, StreamWriteFrac: 0.15, RandWriteFrac: 0.1},
				{LoopFrac: 0.10, StreamFrac: 0.55, HotFrac: 0.25, RandFrac: 0.10,
					HotWriteFrac: 0.7, StreamWriteFrac: 0.5, RandWriteFrac: 0.3},
			}},
		{Name: "hmmer06", FootprintBlocks: 10240, LoopFrac: 0.50, StreamFrac: 0.15, HotFrac: 0.25, RandFrac: 0.10,
			LoopBlocks: 2500, HotBlocks: 500, HotWriteFrac: 0.5, StreamWriteFrac: 0.3, RandWriteFrac: 0.1,
			GapMean: 14, ZeroFrac: 0.05, HCRFrac: 0.52, LCRFrac: 0.18},
		{Name: "wrf06", FootprintBlocks: 28672, LoopFrac: 0.40, StreamFrac: 0.35, HotFrac: 0.10, RandFrac: 0.15,
			LoopBlocks: 5500, HotBlocks: 500, HotWriteFrac: 0.4, StreamWriteFrac: 0.3, RandWriteFrac: 0.1,
			GapMean: 11, ZeroFrac: 0.07, HCRFrac: 0.30, LCRFrac: 0.34},
		{Name: "roms17", FootprintBlocks: 36864, LoopFrac: 0.35, StreamFrac: 0.45, HotFrac: 0.08, RandFrac: 0.12,
			LoopBlocks: 6500, HotBlocks: 400, HotWriteFrac: 0.4, StreamWriteFrac: 0.35, RandWriteFrac: 0.1,
			GapMean: 9, ZeroFrac: 0.05, HCRFrac: 0.27, LCRFrac: 0.38},
		{Name: "cactuBSSN17", FootprintBlocks: 30720, LoopFrac: 0.42, StreamFrac: 0.33, HotFrac: 0.10, RandFrac: 0.15,
			LoopBlocks: 6000, HotBlocks: 450, HotWriteFrac: 0.45, StreamWriteFrac: 0.3, RandWriteFrac: 0.1,
			GapMean: 10, ZeroFrac: 0.04, HCRFrac: 0.22, LCRFrac: 0.36},
		{Name: "soplex06", FootprintBlocks: 26624, LoopFrac: 0.30, StreamFrac: 0.30, HotFrac: 0.20, RandFrac: 0.20,
			LoopBlocks: 5000, HotBlocks: 800, HotWriteFrac: 0.5, StreamWriteFrac: 0.3, RandWriteFrac: 0.15,
			GapMean: 8, ZeroFrac: 0.06, HCRFrac: 0.28, LCRFrac: 0.30,
			// Simplex iterations: pricing sweeps (stream) vs pivoting
			// (hot read-write).
			PhaseLen: 220_000, Phases: []PatternMix{
				{LoopFrac: 0.20, StreamFrac: 0.55, HotFrac: 0.10, RandFrac: 0.15,
					HotWriteFrac: 0.4, StreamWriteFrac: 0.2, RandWriteFrac: 0.1},
			}},
		{Name: "omnetpp06", FootprintBlocks: 24576, LoopFrac: 0.25, StreamFrac: 0.20, HotFrac: 0.30, RandFrac: 0.25,
			LoopBlocks: 4500, HotBlocks: 1200, HotWriteFrac: 0.55, StreamWriteFrac: 0.3, RandWriteFrac: 0.25,
			GapMean: 8, ZeroFrac: 0.12, HCRFrac: 0.42, LCRFrac: 0.18},
		{Name: "astar06", FootprintBlocks: 16384, LoopFrac: 0.30, StreamFrac: 0.15, HotFrac: 0.30, RandFrac: 0.25,
			LoopBlocks: 3500, HotBlocks: 1000, HotWriteFrac: 0.5, StreamWriteFrac: 0.25, RandWriteFrac: 0.2,
			GapMean: 10, ZeroFrac: 0.08, HCRFrac: 0.40, LCRFrac: 0.16,
			// astar's path searches alternate pointer-chase-like random
			// phases with open/closed-list (hot write) phases.
			PhaseLen: 150_000, Phases: []PatternMix{
				{LoopFrac: 0.15, StreamFrac: 0.10, HotFrac: 0.20, RandFrac: 0.55,
					HotWriteFrac: 0.4, StreamWriteFrac: 0.2, RandWriteFrac: 0.15},
			}},
		{Name: "milc06", FootprintBlocks: 40960, LoopFrac: 0.30, StreamFrac: 0.45, HotFrac: 0.10, RandFrac: 0.15,
			LoopBlocks: 5500, HotBlocks: 500, HotWriteFrac: 0.45, StreamWriteFrac: 0.35, RandWriteFrac: 0.15,
			GapMean: 8, ZeroFrac: 0.0, HCRFrac: 0.02, LCRFrac: 0.03},
		{Name: "libquantum06", FootprintBlocks: 32768, LoopFrac: 0.55, StreamFrac: 0.30, HotFrac: 0.05, RandFrac: 0.10,
			LoopBlocks: 7000, HotBlocks: 300, HotWriteFrac: 0.5, StreamWriteFrac: 0.4, RandWriteFrac: 0.1,
			GapMean: 7, ZeroFrac: 0.20, HCRFrac: 0.62, LCRFrac: 0.10},
		{Name: "xalancbmk06", FootprintBlocks: 20480, LoopFrac: 0.35, StreamFrac: 0.15, HotFrac: 0.25, RandFrac: 0.25,
			LoopBlocks: 4000, HotBlocks: 1100, HotWriteFrac: 0.5, StreamWriteFrac: 0.25, RandWriteFrac: 0.2,
			GapMean: 9, ZeroFrac: 0.15, HCRFrac: 0.50, LCRFrac: 0.12,
			// XSLT transformation: DOM-build (write-heavy) vs template
			// matching (read loops).
			PhaseLen: 160_000, Phases: []PatternMix{
				{LoopFrac: 0.55, StreamFrac: 0.10, HotFrac: 0.15, RandFrac: 0.20,
					HotWriteFrac: 0.25, StreamWriteFrac: 0.1, RandWriteFrac: 0.1},
			}},
		{Name: "leslie3d06", FootprintBlocks: 30720, LoopFrac: 0.40, StreamFrac: 0.35, HotFrac: 0.10, RandFrac: 0.15,
			LoopBlocks: 6000, HotBlocks: 450, HotWriteFrac: 0.45, StreamWriteFrac: 0.3, RandWriteFrac: 0.1,
			GapMean: 10, ZeroFrac: 0.05, HCRFrac: 0.25, LCRFrac: 0.40},
		{Name: "bwaves17", FootprintBlocks: 45056, LoopFrac: 0.40, StreamFrac: 0.40, HotFrac: 0.05, RandFrac: 0.15,
			LoopBlocks: 7500, HotBlocks: 300, HotWriteFrac: 0.4, StreamWriteFrac: 0.3, RandWriteFrac: 0.1,
			GapMean: 8, ZeroFrac: 0.04, HCRFrac: 0.20, LCRFrac: 0.48},
		{Name: "mcf17", FootprintBlocks: 49152, LoopFrac: 0.20, StreamFrac: 0.20, HotFrac: 0.25, RandFrac: 0.35,
			LoopBlocks: 5000, HotBlocks: 1500, HotWriteFrac: 0.5, StreamWriteFrac: 0.3, RandWriteFrac: 0.25,
			GapMean: 6, ZeroFrac: 0.10, HCRFrac: 0.48, LCRFrac: 0.14},
		{Name: "lbm17", FootprintBlocks: 40960, LoopFrac: 0.25, StreamFrac: 0.55, HotFrac: 0.05, RandFrac: 0.15,
			LoopBlocks: 4500, HotBlocks: 400, HotWriteFrac: 0.5, StreamWriteFrac: 0.45, RandWriteFrac: 0.2,
			GapMean: 7, ZeroFrac: 0.03, HCRFrac: 0.22, LCRFrac: 0.30},
		{Name: "xz17", FootprintBlocks: 24576, LoopFrac: 0.25, StreamFrac: 0.30, HotFrac: 0.20, RandFrac: 0.25,
			LoopBlocks: 4000, HotBlocks: 900, HotWriteFrac: 0.55, StreamWriteFrac: 0.35, RandWriteFrac: 0.25,
			GapMean: 9, ZeroFrac: 0.0, HCRFrac: 0.01, LCRFrac: 0.02},
		{Name: "GemsFDTD06", FootprintBlocks: 36864, LoopFrac: 0.50, StreamFrac: 0.32, HotFrac: 0.06, RandFrac: 0.12,
			LoopBlocks: 7000, HotBlocks: 350, HotWriteFrac: 0.45, StreamWriteFrac: 0.3, RandWriteFrac: 0.1,
			GapMean: 9, ZeroFrac: 0.25, HCRFrac: 0.68, LCRFrac: 0.05},
		// Synthetic skewed tenants (not SPEC): the wear-variation
		// scenario axis. zipfwr/zipfdb/zipfrd are zipfian tenants whose
		// set-pressure heads sit on different chunk bands (SkewOffset),
		// the way page-coloring assigns tenants disjoint set partitions;
		// together their write-hot bands cover well over half the sets.
		// tenantbatch is a streaming batch interferer competing for the
		// same cache.
		{Name: "zipfwr", Synthetic: true, FootprintBlocks: 24576, LoopFrac: 0.10, StreamFrac: 0.05, HotFrac: 0.05, RandFrac: 0.05, SkewFrac: 0.75,
			LoopBlocks: 2000, HotBlocks: 400, HotWriteFrac: 0.5, StreamWriteFrac: 0.3, RandWriteFrac: 0.2,
			SkewWriteFrac: 0.7, SkewTheta: 1.1, SkewBand: 14, SkewOffset: 0,
			GapMean: 8, ZeroFrac: 0.10, HCRFrac: 0.45, LCRFrac: 0.20},
		{Name: "zipfdb", Synthetic: true, FootprintBlocks: 28672, LoopFrac: 0.10, StreamFrac: 0.05, HotFrac: 0.05, RandFrac: 0.05, SkewFrac: 0.75,
			LoopBlocks: 2500, HotBlocks: 500, HotWriteFrac: 0.5, StreamWriteFrac: 0.3, RandWriteFrac: 0.2,
			SkewWriteFrac: 0.65, SkewTheta: 1.1, SkewBand: 14, SkewOffset: 14,
			GapMean: 8, ZeroFrac: 0.08, HCRFrac: 0.40, LCRFrac: 0.22},
		{Name: "zipfrd", Synthetic: true, FootprintBlocks: 20480, LoopFrac: 0.15, StreamFrac: 0.05, HotFrac: 0.10, RandFrac: 0.05, SkewFrac: 0.65,
			LoopBlocks: 3000, HotBlocks: 600, HotWriteFrac: 0.4, StreamWriteFrac: 0.25, RandWriteFrac: 0.15,
			SkewWriteFrac: 0.55, SkewTheta: 1.1, SkewBand: 12, SkewOffset: 28,
			GapMean: 10, ZeroFrac: 0.12, HCRFrac: 0.50, LCRFrac: 0.15},
		{Name: "tenantbatch", Synthetic: true, FootprintBlocks: 36864, LoopFrac: 0.05, StreamFrac: 0.70, HotFrac: 0.05, RandFrac: 0.20,
			LoopBlocks: 1500, HotBlocks: 400, HotWriteFrac: 0.4, StreamWriteFrac: 0.4, RandWriteFrac: 0.2,
			GapMean: 7, ZeroFrac: 0.05, HCRFrac: 0.30, LCRFrac: 0.25},
	}
	m := make(map[string]Profile, len(ps))
	for _, p := range ps {
		m[p.Name] = p
	}
	return m
}

// Mixes returns the multi-programmed workloads: the paper's ten Table V
// mixes (indices 0-9) plus the skewed-traffic scenario mixes — 10
// "zipfian set pressure" (two copies of the write-heavy zipf tenant
// doubling down on one chunk band) and 11 "multi-tenant interference"
// (three zipf tenants on staggered bands plus a streaming batch
// interferer), the wear-variation scenarios the wear coloring
// targets.
func Mixes() [][]string {
	return [][]string{
		{"zeusmp06", "gobmk06", "dealII06", "bzip206"},
		{"hmmer06", "bzip206", "wrf06", "roms17"},
		{"zeusmp06", "cactuBSSN17", "hmmer06", "soplex06"},
		{"omnetpp06", "astar06", "milc06", "libquantum06"},
		{"xalancbmk06", "leslie3d06", "bwaves17", "mcf17"},
		{"lbm17", "xz17", "GemsFDTD06", "wrf06"},
		{"cactuBSSN17", "dealII06", "libquantum06", "xalancbmk06"},
		{"gobmk06", "milc06", "mcf17", "lbm17"},
		{"xz17", "astar06", "bwaves17", "soplex06"},
		{"GemsFDTD06", "omnetpp06", "roms17", "leslie3d06"},
		{"zipfwr", "zipfwr", "zipfdb", "tenantbatch"},
		{"zipfwr", "zipfdb", "zipfrd", "tenantbatch"},
	}
}

// MixProfiles resolves mix index (0-based) into its four profiles.
func MixProfiles(mix int) ([]Profile, error) {
	mixes := Mixes()
	if mix < 0 || mix >= len(mixes) {
		return nil, fmt.Errorf("workload: mix %d out of range [0,%d)", mix, len(mixes))
	}
	all := Profiles()
	out := make([]Profile, 0, 4)
	for _, name := range mixes[mix] {
		p, ok := all[name]
		if !ok {
			return nil, fmt.Errorf("workload: unknown application %q", name)
		}
		out = append(out, p)
	}
	return out, nil
}

// hash64 mixes a 64-bit value (SplitMix64 finaliser).
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// classOf deterministically assigns a compression class to a block of a
// profile, honouring the profile's class fractions.
func classOf(p *Profile, seed, block uint64) Class {
	u := float64(hash64(seed^hash64(block))>>11) / (1 << 53)
	switch {
	case u < p.ZeroFrac:
		return ClassZeros
	case u < p.ZeroFrac+p.HCRFrac:
		return ClassHCR
	case u < p.ZeroFrac+p.HCRFrac+p.LCRFrac:
		return ClassLCR
	default:
		return ClassIncompressible
	}
}

// GenContent produces the 64-byte content of a block for a given class and
// version. Content is deterministic in (class, seed, block, version).
func GenContent(class Class, seed, block uint64, version uint32) []byte {
	return GenContentInto(nil, class, seed, block, version)
}

// GenContentInto generates like GenContent but writes into dst when its
// capacity suffices (allocating otherwise), so per-access content
// generation on the simulation hot path performs zero allocations. The
// returned slice aliases dst's storage when it was reused.
func GenContentInto(dst []byte, class Class, seed, block uint64, version uint32) []byte {
	if cap(dst) < 64 {
		dst = make([]byte, 64)
	}
	out := dst[:64]
	h := hash64(seed ^ hash64(block) ^ (uint64(version) << 32))
	switch class {
	case ClassZeros:
		// Zero-initialised data stays zero across versions.
		for i := range out {
			out[i] = 0
		}
	case ClassHCR:
		genHCR(out, h)
	case ClassLCR:
		genLCR(out, h)
	default:
		genRandom(out, h)
	}
	return out
}

// genHCR fills an HCR-class block: one of the small-delta BDI templates
// (Rep8, B8D1, B4D1, B8D2, B2D1), compressed size <= 37.
func genHCR(out []byte, h uint64) {
	switch h % 5 {
	case 0: // Rep8 (8B)
		for i := 0; i < 64; i += 8 {
			binary.LittleEndian.PutUint64(out[i:], h)
		}
	case 1: // B8D1 (16B): 8-byte values, deltas from the first value in [0,127]
		base := h
		binary.LittleEndian.PutUint64(out[0:], base)
		for i := 1; i < 8; i++ {
			binary.LittleEndian.PutUint64(out[i*8:], base+hash64(h+uint64(i))%128)
		}
	case 2: // B4D1 (20B): 4-byte values, deltas in [0,127]
		base := uint32(h)
		binary.LittleEndian.PutUint32(out[0:], base)
		for i := 1; i < 16; i++ {
			binary.LittleEndian.PutUint32(out[i*4:], base+uint32(hash64(h+uint64(i))%128))
		}
	case 3: // B8D2 (24B): deltas in [128, 32767] so B8D1 cannot cover it
		base := h
		binary.LittleEndian.PutUint64(out[0:], base)
		for i := 1; i < 8; i++ {
			binary.LittleEndian.PutUint64(out[i*8:], base+128+hash64(h+uint64(i))%(32768-128))
		}
	default: // B2D1 (34B): 2-byte values, deltas in [0,127]
		base := uint16(h)
		binary.LittleEndian.PutUint16(out[0:], base)
		for i := 1; i < 32; i++ {
			binary.LittleEndian.PutUint16(out[i*2:], base+uint16(hash64(h+uint64(i))%128))
		}
	}
}

// genLCR fills an LCR-class block: wide-delta base-8 templates (B8D4,
// B8D5, B8D6), compressed size in (37, 64).
func genLCR(out []byte, h uint64) {
	var lo, hi uint // delta magnitude bits: force delta width in bytes
	switch h % 3 {
	case 0:
		lo, hi = 24, 31 // needs 4-byte deltas -> B8D4 (40B)
	case 1:
		lo, hi = 32, 39 // needs 5-byte deltas -> B8D5 (48B)
	default:
		lo, hi = 40, 47 // needs 6-byte deltas -> B8D6 (56B)
	}
	base := h
	binary.LittleEndian.PutUint64(out[0:], base)
	for i := 1; i < 8; i++ {
		m := hash64(h + uint64(i))
		mag := uint64(1)<<lo + m%(uint64(1)<<hi-uint64(1)<<lo)
		binary.LittleEndian.PutUint64(out[i*8:], base+mag)
	}
}

// genRandom fills an incompressible block with pseudo-random bytes.
func genRandom(out []byte, h uint64) {
	for i := 0; i < 64; i += 8 {
		h = hash64(h + 0x9E3779B97F4A7C15)
		binary.LittleEndian.PutUint64(out[i:], h)
	}
}
