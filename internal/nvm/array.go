package nvm

import "fmt"

// Array is the NVM portion of the hybrid LLC data array: sets x ways
// frames, each with independent per-byte endurance. It also owns the
// global wear-leveling counter.
//
// The frames live in one backing slice, and each publishes its effective
// capacity into caps, a dense byte per frame in the same physical
// set-major order. Only Frame methods write caps, so a row read through
// CapRow is exact after any write, aging pass, fault injection or restore.
type Array struct {
	sets, ways int
	backing    []Frame
	frames     []*Frame // &backing[i], the view Frames returns
	caps       []uint8  // caps[i] == frames[i].EffectiveCapacity()
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
// endurance sampled from model.
func NewArray(sets, ways int, model EnduranceModel, s Sampler, gran Granularity) *Array {
	if sets <= 0 || ways < 0 {
		panic("nvm: invalid array geometry")
	}
	a := newArray(sets, ways, model, gran)
	for _, f := range a.frames {
		f.sample(model, s, gran)
	}
	a.publishAll()
	return a
}

// newArray allocates the frame storage and capacity rows of an array,
// binding each frame to its capacity slot. The frames are left zero for
// the caller to fill.
func newArray(sets, ways int, model EnduranceModel, gran Granularity) *Array {
	n := sets * ways
	a := &Array{
		sets: sets, ways: ways, gran: gran, model: model,
		backing: make([]Frame, n),
		frames:  make([]*Frame, n),
		caps:    make([]uint8, n),
	}
	for i := range a.backing {
		a.frames[i] = &a.backing[i]
	}
	return a
}

// publishAll binds every frame to its capacity slot and publishes its
// current capacity.
func (a *Array) publishAll() {
	for i, f := range a.frames {
		f.capSlot = &a.caps[i]
		f.publish()
	}
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
	return a.frames[a.physRow(set)*a.ways+way]
}

// CapRow returns the effective capacities of the frames backing logical
// set set under the current inter-set rotation: CapRow(set)[w] ==
// Frame(set, w).EffectiveCapacity(). The slice aliases the array's
// storage; it stays current as the frames age and must not be written.
func (a *Array) CapRow(set int) []uint8 {
	i := a.physRow(set) * a.ways
	return a.caps[i : i+a.ways : i+a.ways]
}

// CheckCapRows verifies that every frame's published capacity equals its
// EffectiveCapacity, returning the first mismatch.
func (a *Array) CheckCapRows() error {
	for i, f := range a.frames {
		if got, want := int(a.caps[i]), f.EffectiveCapacity(); got != want {
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
// it directly.
func (a *Array) Frames() []*Frame { return a.frames }

// Counter returns the global wear-leveling counter.
func (a *Array) Counter() *WearLevelCounter { return &a.counter }

// EffectiveCapacityFraction returns the array's remaining effective
// capacity as a fraction of its pristine capacity (sets x ways x 64 data
// bytes). This is the paper's aging metric: lifetime is the time for it to
// fall to 0.5.
func (a *Array) EffectiveCapacityFraction() float64 {
	if len(a.frames) == 0 {
		return 0
	}
	var have int
	for _, f := range a.frames {
		have += f.EffectiveCapacity()
	}
	return float64(have) / float64(len(a.frames)*DataBytes)
}

// LiveFrames returns the number of frames that can still hold a block.
func (a *Array) LiveFrames() int {
	n := 0
	for _, f := range a.frames {
		if !f.Dead() {
			n++
		}
	}
	return n
}

// ResetPhase clears every frame's phase byte-write counter.
func (a *Array) ResetPhase() {
	for _, f := range a.frames {
		f.ResetPhase()
	}
}

// PhaseBytesWritten sums bytes written across all frames this phase.
func (a *Array) PhaseBytesWritten() uint64 {
	var total uint64
	for _, f := range a.frames {
		total += f.PhaseWritten()
	}
	return total
}

// MetadataOverhead reports the fault-map storage cost of the array in bits,
// for the §V-G overhead analysis: byte-disabling needs one bit per NVM byte
// (66 per frame); frame-disabling needs one bit per frame.
func (a *Array) MetadataOverhead() int64 {
	switch a.gran {
	case ByteDisabling:
		return int64(len(a.frames)) * FrameBytes
	default:
		return int64(len(a.frames))
	}
}

// DataArrayBits returns the size of the NVM data array in bits (66 bytes
// per frame, as stored: data + CE + SECDED).
func (a *Array) DataArrayBits() int64 {
	return int64(len(a.frames)) * FrameBytes * 8
}
