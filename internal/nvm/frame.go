// Package nvm models the non-volatile part of the hybrid LLC at the level
// the paper's policies care about: per-byte write endurance drawn from a
// normal distribution (§II-A), a per-frame fault map with byte- or
// frame-granularity disabling (§III-B), intra-frame wear leveling via a
// global rotation counter, and the block-rearrangement circuitry that
// scatters compressed blocks across the non-faulty bytes of a frame
// (Fig. 5).
package nvm

import (
	"fmt"
	"math"
	"math/bits"
)

// FrameBytes is the physical size of an NVM frame: 64 data bytes plus two
// metadata bytes holding the 4-bit compression-encoding field and the
// 11-bit SECDED code (516 data bits -> (527,516); 15 metadata bits round to
// 2 bytes). The fault map consequently holds 66 bits per frame (Fig. 4).
const FrameBytes = 66

// DataBytes is the logical cache-block size stored in a frame.
const DataBytes = 64

// MetaBytes is the per-frame metadata (CE + SECDED) in bytes.
const MetaBytes = FrameBytes - DataBytes

// MinECB is the smallest extended compressed block: a zeros-encoded block
// (1 byte) plus metadata. A frame with fewer live bytes than this is dead.
const MinECB = 1 + MetaBytes

// Granularity selects how hard faults disable storage (§III-B, Table III).
type Granularity uint8

// Disabling granularities.
const (
	// ByteDisabling disables individual faulty bytes; the remaining live
	// bytes keep holding (compressed) blocks. Used by BH_CP and CP_SD.
	ByteDisabling Granularity = iota
	// FrameDisabling disables the whole frame on its first hard fault.
	// Used by BH, LHybrid and TAP in the paper's fault-aware comparison.
	FrameDisabling
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case ByteDisabling:
		return "byte"
	case FrameDisabling:
		return "frame"
	}
	return fmt.Sprintf("Granularity(%d)", uint8(g))
}

// EnduranceModel describes the per-bitcell write endurance distribution:
// a normal with the given mean and coefficient of variation (§II-A).
type EnduranceModel struct {
	Mean float64 // mean writes per byte until failure (paper: 1e10)
	CV   float64 // coefficient of variation sigma/mean (paper: 0.2-0.3)
}

// Sampler draws per-byte endurance limits.
type Sampler interface {
	// TruncNormal returns a normal sample truncated below at lo.
	TruncNormal(mean, stddev, lo float64) float64
}

// Frame is one NVM cache frame: 66 bytes of bitcells with individual
// endurance limits, a fault map, and wear state.
//
// Because the rearrangement circuit plus the global rotation counter spread
// every write uniformly over the frame's live bytes (§III-B1), all bytes
// that are still alive share the same accumulated per-byte wear; a byte
// dies when that shared wear level crosses its sampled endurance limit.
// This is the same analytic treatment as the paper's forecast procedure.
//
// The fields the write path touches come first, ahead of the 528-byte
// limits array, so a write reads one or two host cache lines of the frame.
type Frame struct {
	wear float64 // per-live-byte accumulated writes
	// nextLimit is at most the limit of the next live byte to die, so a
	// write that kills no byte costs one compare. Once the order is
	// built it caches limits[order[next]] (+Inf once next reaches
	// FrameBytes); before that it is the smallest live byte's limit.
	nextLimit float64
	// phaseWritten counts bytes written to this frame during the current
	// simulation phase; the forecast turns it into a write rate.
	phaseWritten uint64
	// totalWritten counts bytes written over the frame's whole life; it
	// survives ResetPhase and feeds the metrics registry.
	totalWritten uint64
	faultLo      uint64 // fault map bits of bytes 0..63
	// capSlot is where the frame publishes its EffectiveCapacity whenever
	// it changes: the frame's entry in its array's dense capacity rows
	// (see Array.CapRow). nil for a frame built outside an array.
	capSlot *uint8
	faultHi uint8 // fault map bits of bytes 64..65
	live    uint8 // non-faulty bytes
	next    uint8 // index into order of the next byte to die
	dead    bool  // frame disabled (always true when live < MinECB)
	gran    Granularity
	sorted  bool // order and next are built (see ensureOrder)

	order  [FrameBytes]uint8   // byte indices by ascending limit, once sorted
	limits [FrameBytes]float64 // per-byte endurance (writes)
}

// NewFrame samples per-byte endurance from model using s and returns a
// fully functional frame with the given disabling granularity.
func NewFrame(model EnduranceModel, s Sampler, gran Granularity) *Frame {
	f := &Frame{}
	f.sample(model, s, gran)
	return f
}

// sample initialises f in place as a fresh frame with sampled limits.
func (f *Frame) sample(model EnduranceModel, s Sampler, gran Granularity) {
	*f = Frame{live: FrameBytes, gran: gran}
	sigma := model.Mean * model.CV
	for i := range f.limits {
		f.limits[i] = s.TruncNormal(model.Mean, sigma, 1)
	}
	f.nextLimit = f.minLiveLimit()
}

// minLiveLimit returns the smallest limit of a live byte, or +Inf if
// every byte is disabled. It is the nextLimit of a frame whose order is
// not built yet: exactly limits[order[next]] once ensureOrder runs.
func (f *Frame) minLiveLimit() float64 {
	m := math.Inf(1)
	for i, l := range f.limits {
		if l < m && !f.faulty(i) {
			m = l
		}
	}
	return m
}

// ensureOrder builds the death order on first need and puts next past
// the bytes already disabled. Most frames never lose a byte to wear, so
// sampling and restoring leave the order unbuilt; only the operations
// that read it build it: AddWear once a limit is crossed, InjectFault and
// NextLimit.
func (f *Frame) ensureOrder() {
	if f.sorted {
		return
	}
	f.sortOrder()
	f.sorted = true
	f.skipDisabled()
}

// sortOrder sets order to the byte indices by ascending limit, equal
// limits in byte-index order, so a restored frame dies exactly like its
// source. The stable insertion sort runs in place on the frame and
// allocates nothing.
func (f *Frame) sortOrder() {
	for i := range f.order {
		b := uint8(i)
		j := i
		for ; j > 0 && f.limits[f.order[j-1]] > f.limits[b]; j-- {
			f.order[j] = f.order[j-1]
		}
		f.order[j] = b
	}
}

// skipDisabled moves next past bytes already disabled, so nextLimit
// names a live byte, and refreshes nextLimit.
func (f *Frame) skipDisabled() {
	for int(f.next) < FrameBytes && f.faulty(int(f.order[f.next])) {
		f.next++
	}
	f.syncNext()
}

// syncNext refreshes the cached next-death limit after next moved.
func (f *Frame) syncNext() {
	if int(f.next) < FrameBytes {
		f.nextLimit = f.limits[f.order[f.next]]
	} else {
		f.nextLimit = math.Inf(1)
	}
}

// publish writes the frame's effective capacity into its capacity slot.
// Every mutator that changes live or dead calls it, so the array's
// capacity rows never go stale.
func (f *Frame) publish() {
	if f.capSlot != nil {
		*f.capSlot = uint8(f.EffectiveCapacity())
	}
}

// faulty reports whether byte i is disabled.
func (f *Frame) faulty(i int) bool {
	if i < 64 {
		return f.faultLo&(1<<uint(i)) != 0
	}
	return f.faultHi&(1<<uint(i-64)) != 0
}

// setFaulty disables byte i in the fault map.
func (f *Frame) setFaulty(i int) {
	if i < 64 {
		f.faultLo |= 1 << uint(i)
	} else {
		f.faultHi |= 1 << uint(i-64)
	}
}

// Granularity returns the frame's disabling granularity.
func (f *Frame) Granularity() Granularity { return f.gran }

// LiveBytes returns the number of non-faulty bytes.
func (f *Frame) LiveBytes() int {
	if f.dead {
		return 0
	}
	return int(f.live)
}

// Dead reports whether the frame can no longer hold any block.
func (f *Frame) Dead() bool { return f.dead }

// EffectiveCapacity returns the number of data bytes a block stored in this
// frame may occupy: the live bytes minus metadata, capped at the block
// size. Zero means the frame is unusable.
func (f *Frame) EffectiveCapacity() int {
	if f.dead {
		return 0
	}
	c := int(f.live) - MetaBytes
	if c < 1 {
		return 0
	}
	if c > DataBytes {
		c = DataBytes
	}
	return c
}

// Fits reports whether a compressed block of cbSize data bytes fits.
func (f *Frame) Fits(cbSize int) bool { return cbSize <= f.EffectiveCapacity() }

// FaultMap returns a copy of the frame's fault map.
func (f *Frame) FaultMap() FaultMap { return FaultMap{lo: f.faultLo, hi: uint64(f.faultHi)} }

// Wear returns the shared per-live-byte accumulated write count.
func (f *Frame) Wear() float64 { return f.wear }

// NextLimit returns the endurance limit of the next byte to die, or +Inf if
// every byte has already failed.
func (f *Frame) NextLimit() float64 {
	f.ensureOrder()
	for i := int(f.next); i < FrameBytes; i++ {
		if !f.faulty(int(f.order[i])) {
			return f.limits[f.order[i]]
		}
	}
	return math.Inf(1)
}

// RecordWrite accounts for a block write of ecbBytes bytes into the frame:
// it bumps the phase byte-write counter and advances the shared wear level
// by ecbBytes spread over the live bytes. Newly failed bytes are disabled
// according to the granularity. It returns the number of bytes that died.
func (f *Frame) RecordWrite(ecbBytes int) int {
	if f.dead || f.live == 0 {
		return 0
	}
	f.phaseWritten += uint64(ecbBytes)
	f.totalWritten += uint64(ecbBytes)
	return f.AddWear(float64(ecbBytes) / float64(f.live))
}

// AddWear advances the shared wear level by delta per-byte writes and
// disables any bytes whose limit is crossed. It returns the number of bytes
// that died.
func (f *Frame) AddWear(delta float64) int {
	if f.dead {
		return 0
	}
	f.wear += delta
	if f.nextLimit > f.wear {
		return 0 // the common case: no limit crossed
	}
	f.ensureOrder()
	died := 0
	for int(f.next) < FrameBytes && f.limits[f.order[f.next]] <= f.wear {
		bi := int(f.order[f.next])
		f.next++
		if f.faulty(bi) {
			continue // already disabled by fault injection
		}
		f.setFaulty(bi)
		f.live--
		died++
	}
	f.syncNext()
	if died > 0 {
		if f.gran == FrameDisabling || f.live < MinECB {
			f.dead = true
		}
		f.publish()
	}
	return died
}

// AdvanceTo raises the shared wear level to the absolute value w (no-op if
// the frame is already past it) and returns the number of bytes that died.
// The forecast prediction phase uses this to fast-forward aging.
func (f *Frame) AdvanceTo(w float64) int {
	if w <= f.wear {
		return 0
	}
	return f.AddWear(w - f.wear)
}

// PhaseWritten returns bytes written to the frame this simulation phase.
func (f *Frame) PhaseWritten() uint64 { return f.phaseWritten }

// TotalWritten returns bytes ever written to the frame (not reset by
// ResetPhase).
func (f *Frame) TotalWritten() uint64 { return f.totalWritten }

// FaultyBytes returns the number of disabled bytes in the frame.
func (f *Frame) FaultyBytes() int { return FrameBytes - int(f.live) }

// ResetPhase clears the phase byte-write counter.
func (f *Frame) ResetPhase() { f.phaseWritten = 0 }

// Disable forcibly kills the whole frame regardless of granularity: the
// fault-injection layer uses it for frame-kill campaigns. Wear state and
// the fault map keep their current values; only the dead flag changes, so
// a disabled frame reports zero live bytes and zero effective capacity.
func (f *Frame) Disable() {
	f.dead = true
	f.publish()
}

// InjectFault forcibly disables byte i (used by fault-injection tests).
func (f *Frame) InjectFault(i int) {
	if f.dead || f.faulty(i) {
		return
	}
	f.ensureOrder()
	f.setFaulty(i)
	f.live--
	f.skipDisabled()
	if f.gran == FrameDisabling || f.live < MinECB {
		f.dead = true
	}
	f.publish()
}

// FaultMap is a 66-bit bitmap; bit i set means byte i is faulty.
type FaultMap struct {
	lo, hi uint64 // bytes 0..63 in lo, 64..65 in hi
}

// Get reports whether byte i is faulty.
func (m FaultMap) Get(i int) bool {
	if i < 64 {
		return m.lo&(1<<uint(i)) != 0
	}
	return m.hi&(1<<uint(i-64)) != 0
}

// Set marks byte i faulty.
func (m *FaultMap) Set(i int) {
	if i < 64 {
		m.lo |= 1 << uint(i)
	} else {
		m.hi |= 1 << uint(i-64)
	}
}

// Count returns the number of faulty bytes.
func (m FaultMap) Count() int {
	return bits.OnesCount64(m.lo) + bits.OnesCount64(m.hi&0x3)
}
