package nvm

import (
	"fmt"

	"repro/internal/stats"
)

// Array is the NVM portion of the hybrid LLC data array: sets x ways
// frames, each with independent per-byte endurance. It also owns the
// global wear-leveling counter.
//
// The frame headers live in one backing slice. Each publishes its
// effective capacity into the slab's caps, a dense byte per frame in the
// same physical set-major order. Only Frame methods write caps, so a row
// read through CapRow is exact after any write, aging pass or fault
// injection. The slab holds no limits: each frame draws its own as it
// needs them, from the slab's keyed stream (see limitSlab.after).
type Array struct {
	sets, ways int
	backing    []Frame
	frames     []*Frame // &backing[i], the view Frames builds on first call
	slab       limitSlab
	counter    WearLevelCounter
	gran       Granularity
	model      EnduranceModel

	// remap is the inter-set rotation offset: logical set s maps to the
	// physical frame row (s + remap) mod sets. Only LLC.RotateNVMSets
	// advances it, and only the frozen benchmark (perfbench/) still
	// calls that; the simulator levels the set dimension through
	// internal/coloring's set mappers instead.
	remap int
}

// NewArray builds an NVM array of sets x ways frames with per-byte
// endurance following model. It takes one value from r, the key of every
// frame's stream, and draws each frame's smallest limit: a frame's limits
// depend on the key and its index alone, so no frame's draws wait on
// another's.
func NewArray(sets, ways int, model EnduranceModel, r *stats.RNG, gran Granularity) *Array {
	if sets <= 0 || ways < 0 {
		panic("nvm: invalid array geometry")
	}
	n := sets * ways
	a := &Array{
		sets: sets, ways: ways, gran: gran, model: model,
		backing: make([]Frame, n),
		slab:    newLimitSlab(model, n, r),
	}
	for i := range a.backing {
		f := &a.backing[i]
		f.slab, f.idx = &a.slab, uint32(i)
		f.sample(gran)
		f.publish()
	}
	return a
}

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the number of NVM ways per set.
func (a *Array) Ways() int { return a.ways }

// Granularity returns the disabling granularity of the array's frames.
func (a *Array) Granularity() Granularity { return a.gran }

// Model returns the endurance model the array was built with.
func (a *Array) Model() EnduranceModel { return a.model }

// physRow maps a logical set to its physical frame row under the current
// inter-set rotation.
func (a *Array) physRow(set int) int {
	phys := set + a.remap
	if phys >= a.sets {
		phys -= a.sets
	}
	return phys
}

// Frame returns the frame backing the logical (set, way) position under
// the current inter-set rotation.
func (a *Array) Frame(set, way int) *Frame {
	return &a.backing[a.physRow(set)*a.ways+way]
}

// CapRow returns the effective capacities of the frames backing logical
// set set under the current inter-set rotation: CapRow(set)[w] ==
// Frame(set, w).EffectiveCapacity(). The slice aliases the array's
// storage; it stays current as the frames age and must not be written.
func (a *Array) CapRow(set int) []uint8 {
	i := a.physRow(set) * a.ways
	return a.slab.caps[i : i+a.ways : i+a.ways]
}

// CheckCapRows verifies that every frame's published capacity equals its
// EffectiveCapacity, returning the first mismatch.
func (a *Array) CheckCapRows() error {
	for i := range a.backing {
		if got, want := int(a.slab.caps[i]), a.backing[i].EffectiveCapacity(); got != want {
			return fmt.Errorf("nvm: frame %d (row %d way %d) publishes capacity %d, has %d",
				i, i/a.ways, i%a.ways, got, want)
		}
	}
	return nil
}

// SetRemap returns the current inter-set rotation offset.
func (a *Array) SetRemap() int { return a.remap }

// AdvanceSetRemap rotates the logical-to-physical set mapping by n rows.
// Callers owning cached frame associations (the LLC) must flush them.
func (a *Array) AdvanceSetRemap(n int) {
	a.remap = ((a.remap+n)%a.sets + a.sets) % a.sets
}

// Frames returns the flat frame slice (set-major). The forecast iterates
// it directly. The view is built on the first call and kept; the array's
// own passes iterate its frames without it.
func (a *Array) Frames() []*Frame {
	if a.frames == nil {
		a.frames = make([]*Frame, len(a.backing))
		for i := range a.backing {
			a.frames[i] = &a.backing[i]
		}
	}
	return a.frames
}

// Counter returns the global wear-leveling counter.
func (a *Array) Counter() *WearLevelCounter { return &a.counter }

// EffectiveCapacityFraction returns the array's remaining effective
// capacity as a fraction of its pristine capacity (sets x ways x 64 data
// bytes). This is the paper's aging metric: lifetime is the time for it to
// fall to 0.5.
func (a *Array) EffectiveCapacityFraction() float64 {
	if len(a.backing) == 0 {
		return 0
	}
	var have int
	for i := range a.backing {
		have += a.backing[i].EffectiveCapacity()
	}
	return float64(have) / float64(len(a.backing)*DataBytes)
}

// LiveFrames returns the number of frames that can still hold a block.
func (a *Array) LiveFrames() int {
	n := 0
	for i := range a.backing {
		if !a.backing[i].Dead() {
			n++
		}
	}
	return n
}

// ResetPhase clears every frame's phase byte-write counter.
func (a *Array) ResetPhase() {
	for i := range a.backing {
		a.backing[i].ResetPhase()
	}
}

// PhaseBytesWritten sums bytes written across all frames this phase.
func (a *Array) PhaseBytesWritten() uint64 {
	var total uint64
	for i := range a.backing {
		total += a.backing[i].PhaseWritten()
	}
	return total
}

// MetadataOverhead reports the fault-map storage cost of the array in bits,
// for the §V-G overhead analysis: byte-disabling needs one bit per NVM byte
// (66 per frame); frame-disabling needs one bit per frame.
func (a *Array) MetadataOverhead() int64 {
	switch a.gran {
	case ByteDisabling:
		return int64(len(a.backing)) * FrameBytes
	default:
		return int64(len(a.backing))
	}
}

// DataArrayBits returns the size of the NVM data array in bits (66 bytes
// per frame, as stored: data + CE + SECDED).
func (a *Array) DataArrayBits() int64 {
	return int64(len(a.backing)) * FrameBytes * 8
}
