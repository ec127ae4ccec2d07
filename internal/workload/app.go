package workload

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Access is one memory reference emitted by an application model.
type Access struct {
	Block uint64 // global block address (64-byte granularity)
	Write bool
	Gap   int // non-memory instructions executed before this access
}

// App is a running instance of a synthetic application bound to one core.
// Block addresses are globally unique: the app owns the address range
// [base, base+footprint).
type App struct {
	prof     Profile
	base     uint64
	seed     uint64
	rng      *stats.RNG
	loopPos  int
	strmPos  int
	accesses uint64
	mixes    []PatternMix // phase 0 = base profile, then prof.Phases
	versions []uint32
}

// NewApp instantiates profile p on an address-space base (block units),
// seeded deterministically.
func NewApp(p Profile, base uint64, seed uint64) (*App, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mixes := append([]PatternMix{p.BaseMix()}, p.Phases...)
	return &App{
		prof:     p,
		base:     base,
		seed:     seed,
		rng:      stats.NewRNG(seed ^ hash64(base)),
		mixes:    mixes,
		versions: make([]uint32, p.FootprintBlocks),
	}, nil
}

// CurrentPhase returns the index of the pattern mixture in effect.
func (a *App) CurrentPhase() int {
	if len(a.mixes) == 1 {
		return 0
	}
	return int(a.accesses/uint64(a.prof.PhaseLen)) % len(a.mixes)
}

// Profile returns the app's profile.
func (a *App) Profile() Profile { return a.prof }

// Base returns the app's address-space base in block units.
func (a *App) Base() uint64 { return a.base }

// Owns reports whether a global block address belongs to this app.
func (a *App) Owns(block uint64) bool {
	return block >= a.base && block < a.base+uint64(a.prof.FootprintBlocks)
}

// Next produces the app's next memory access.
func (a *App) Next() Access {
	p := &a.prof
	m := &a.mixes[a.CurrentPhase()]
	a.accesses++
	u := a.rng.Float64()
	var local int
	var write bool
	switch {
	case u < m.LoopFrac:
		local = a.loopPos
		a.loopPos++
		if a.loopPos >= p.LoopBlocks {
			a.loopPos = 0
		}
		// Loop blocks are read-only: they become LLC loop/read-reuse blocks.
	case u < m.LoopFrac+m.StreamFrac:
		local = p.LoopBlocks + a.strmPos
		streamLen := p.FootprintBlocks - p.LoopBlocks
		a.strmPos++
		if a.strmPos >= streamLen {
			a.strmPos = 0
		}
		write = a.rng.Float64() < m.StreamWriteFrac
	case u < m.LoopFrac+m.StreamFrac+m.HotFrac:
		local = p.LoopBlocks + a.rng.Intn(p.HotBlocks)
		write = a.rng.Float64() < m.HotWriteFrac
	case u < m.LoopFrac+m.StreamFrac+m.HotFrac+m.SkewFrac:
		// Zipf-like set pressure. The footprint is viewed as SkewChunks
		// interleaved chunks (chunk = block index mod SkewChunks), so one
		// chunk's blocks all land on the same small group of LLC sets for
		// any power-of-two set count ≤ footprint. The chunk index is drawn
		// as floor(U^theta · SkewChunks): P(chunk < c) = (c/SkewChunks)^
		// (1/theta), so a handful of chunks absorb most of the traffic,
		// and within a chunk blocks are drawn uniformly — many more
		// blocks than the set has ways, so the hot sets churn instead of
		// caching. That is exactly the page-coloring-conflict shape that
		// produces inter-set wear variation. Unreachable when SkewFrac is
		// 0, so legacy profiles draw the exact same RNG sequence as
		// before this case existed.
		band := p.SkewBand
		if band < 1 {
			band = SkewChunks
		}
		chunk := int(math.Pow(a.rng.Float64(), p.SkewTheta) * float64(band))
		if chunk >= band {
			chunk = band - 1
		}
		chunk = (chunk + p.SkewOffset) % SkewChunks
		chunkLen := p.FootprintBlocks / SkewChunks
		if chunkLen < 1 {
			chunkLen = 1
		}
		local = a.rng.Intn(chunkLen)*SkewChunks + chunk
		if local >= p.FootprintBlocks {
			local = p.FootprintBlocks - 1
		}
		write = a.rng.Float64() < m.SkewWriteFrac
	default:
		local = a.rng.Intn(p.FootprintBlocks)
		write = a.rng.Float64() < m.RandWriteFrac
	}
	gap := 1 + a.rng.Intn(2*p.GapMean)
	return Access{Block: a.base + uint64(local), Write: write, Gap: gap}
}

// BumpVersion records a store to a block: subsequent Content calls return
// the new (same-class) value.
func (a *App) BumpVersion(block uint64) {
	if !a.Owns(block) {
		panic(fmt.Sprintf("workload: block %#x not owned by %s", block, a.prof.Name))
	}
	a.versions[block-a.base]++
}

// ClassOf returns the compression class assigned to a block.
func (a *App) ClassOf(block uint64) Class {
	if !a.Owns(block) {
		panic(fmt.Sprintf("workload: block %#x not owned by %s", block, a.prof.Name))
	}
	return classOf(&a.prof, a.seed, block-a.base)
}

// Content returns the current 64-byte contents of a block.
func (a *App) Content(block uint64) []byte {
	return a.ContentInto(nil, block)
}

// ContentInto writes the block's current 64-byte contents into dst (grown
// only when its capacity is below 64), performing zero allocations when
// dst is adequate. The returned slice aliases dst's storage.
func (a *App) ContentInto(dst []byte, block uint64) []byte {
	if !a.Owns(block) {
		panic(fmt.Sprintf("workload: block %#x not owned by %s", block, a.prof.Name))
	}
	local := block - a.base
	return GenContentInto(dst, classOf(&a.prof, a.seed, local), a.seed, local, a.versions[local])
}

// SkewChunks is the interleave factor of the zipfian set-pressure
// pattern: blocks are grouped by index mod SkewChunks, and the zipf head
// concentrates on the lowest chunk numbers. A power of two, so each
// chunk aliases onto sets/SkewChunks (or 1) LLC set(s) for every
// power-of-two set count the configs use.
const SkewChunks = 64

// AppSpacing is the address-space stride between apps in block units;
// large enough that footprints never overlap.
const AppSpacing = uint64(1) << 32

// NewMix instantiates the apps of one of the paper's Table V mixes
// (0-based index), each on its own address-space slice. scale rescales
// footprints (1.0 = the default scaled configuration).
func NewMix(mix int, seed uint64, scale float64) ([]*App, error) {
	profs, err := MixProfiles(mix)
	if err != nil {
		return nil, err
	}
	apps := make([]*App, len(profs))
	for i, p := range profs {
		if scale != 1.0 {
			p = p.Scale(scale)
		}
		apps[i], err = NewApp(p, uint64(i+1)*AppSpacing, seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
	}
	return apps, nil
}
