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

	"repro/internal/stats"
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

// Frame is one NVM cache frame: 66 bytes of bitcells with individual
// endurance limits, a fault map, and wear state.
//
// Because the rearrangement circuit plus the global rotation counter spread
// every write uniformly over the frame's live bytes (§III-B1), all bytes
// that are still alive share the same accumulated per-byte wear; a byte
// dies when that shared wear level crosses its sampled endurance limit.
// This is the same analytic treatment as the paper's forecast procedure.
//
// A Frame is a 64-byte header, one host cache line. The per-byte limits
// and the death order are not in it: they live in the frame's entry of
// its owner's slab (see limitSlab), drawn when the owner first needs a
// limit.
type Frame struct {
	wear float64 // per-live-byte accumulated writes
	// nextLimit is at most the limit of the next live byte to die, so a
	// write that kills no byte costs one compare. Once the frame is
	// drawn it is that limit, sorted[next] with next kept past disabled
	// bytes (+Inf once next reaches FrameBytes), so NextLimit reads no
	// slab entry; before that it is the sampler's lower bound on the
	// smallest limit (see sample).
	nextLimit float64
	// phaseWritten counts bytes written to this frame during the current
	// simulation phase; the forecast turns it into a write rate.
	phaseWritten uint64
	// totalWritten counts bytes written over the frame's whole life; it
	// survives ResetPhase and feeds the metrics registry.
	totalWritten uint64
	faultLo      uint64 // fault map bits of bytes 0..63
	// slab is the frame's owner: its array's, or NewFrame's own. idx is
	// the frame's entry there, both in the dense capacity bytes the frame
	// publishes its EffectiveCapacity into and in the drawn limits.
	slab    *limitSlab
	faultHi uint8 // fault map bits of bytes 64..65
	live    uint8 // non-faulty bytes
	next    uint8 // index into the death order of the next byte to die
	dead    bool  // frame disabled (always true when live < MinECB)
	gran    Granularity
	drawn   bool // next and nextLimit read the slab entry (see ensureOrder)
	idx     uint32
}

// limitSlab is what the frames of one array share: the endurance
// distribution their limits are drawn from, the sampler's state before
// the first frame's draws, the dense capacity bytes they publish into,
// and the drawn limits, one entry per frame. The first frame that needs
// a limit draws every entry at once (see draw), so an array whose
// frames never come near a limit holds no limit storage and every later
// need allocates nothing.
type limitSlab struct {
	mean, sigma float64
	ckpt        [4]uint64     // the sampler's state at frame 0's turn in set-up
	caps        []uint8       // caps[i] == EffectiveCapacity of frame i
	entries     []frameLimits // nil until the first draw, then len(caps)
}

// frameLimits is one frame's drawn endurance limits in death order.
type frameLimits struct {
	sorted [FrameBytes]float64 // per-byte endurance (writes), ascending
	// order[k] is the byte whose limit is sorted[k]; equal limits are in
	// byte-index order, so the order depends on the limits alone.
	order [FrameBytes]uint8
}

// newLimitSlab returns the owner of n frames drawing from model, whose
// limits are the next n·FrameBytes draws of r.
func newLimitSlab(model EnduranceModel, n int, r *stats.RNG) limitSlab {
	return limitSlab{mean: model.Mean, sigma: model.Mean * model.CV, ckpt: r.State(), caps: make([]uint8, n)}
}

// NewFrame samples per-byte endurance from model using r and returns a
// fully functional frame with the given disabling granularity. The frame
// owns a one-entry slab.
func NewFrame(model EnduranceModel, r *stats.RNG, gran Granularity) *Frame {
	s := newLimitSlab(model, 1, r)
	f := &Frame{slab: &s}
	f.sample(r, gran)
	f.publish()
	return f
}

// sample initialises f in place as a fresh frame of its slab and
// advances r past its FrameBytes limit draws, as drawing them would. It
// does not draw them: it sets nextLimit to SkipTruncNormal's lower bound
// on the smallest limit, so the frame reads its limits only once its
// wear reaches that bound.
func (f *Frame) sample(r *stats.RNG, gran Granularity) {
	*f = Frame{live: FrameBytes, gran: gran, slab: f.slab, idx: f.idx}
	f.nextLimit = r.SkipTruncNormal(FrameBytes, f.slab.mean, f.slab.sigma, 1)
}

// lim returns the frame's entry in its slab; it holds the frame's limits
// in death order once the slab is drawn.
func (f *Frame) lim() *frameLimits { return &f.slab.entries[f.idx] }

// draw allocates the entries and fills them, in frame order, with the
// FrameBytes TruncNormal draws of each frame from ckpt, one TruncNormals
// call a frame: the very values eager sampling would have drawn at
// set-up. It does nothing once the slab is drawn. The generator is a
// stack value.
func (s *limitSlab) draw() {
	if s.entries != nil {
		return
	}
	s.entries = make([]frameLimits, len(s.caps))
	var r stats.RNG
	r.SetState(s.ckpt)
	var lim [FrameBytes]float64
	for i := range s.entries {
		r.TruncNormals(lim[:], s.mean, s.sigma, 1)
		s.entries[i].sort(&lim, s.mean, s.sigma)
	}
}

// sortBuckets is the number of value ranges sort's counting pass uses.
const sortBuckets = 128

// sort stores the per-byte limits lim, drawn with the given mean and
// sigma, in death order. A counting pass places the bytes by bucket,
// the bucket never decreasing as the limit grows, and keeps byte-index
// order within a bucket; a stable insertion pass then orders each
// bucket's few bytes. The buckets cut mean ± 3σ evenly, so one holds
// about two bytes; for σ = 0 the scaled value is NaN or ±Inf and the
// clamp to [0, sortBuckets) still keeps the bucket monotone. It
// allocates nothing.
func (l *frameLimits) sort(lim *[FrameBytes]float64, mean, sigma float64) {
	lo, scale := mean-3*sigma, sortBuckets/(6*sigma)
	var bucket [FrameBytes]uint8
	var start [sortBuckets + 1]uint8
	for i, v := range lim {
		x := (v - lo) * scale
		if !(x >= 0) {
			x = 0
		}
		bucket[i] = uint8(min(x, sortBuckets-1))
		start[bucket[i]+1]++
	}
	for i := 1; i < sortBuckets; i++ {
		start[i] += start[i-1]
	}
	for i, b := range bucket {
		l.order[start[b]] = uint8(i)
		start[b]++
	}
	for k := range l.order {
		b := l.order[k]
		v := lim[b]
		j := k
		for ; j > 0 && l.sorted[j-1] > v; j-- {
			l.sorted[j], l.order[j] = l.sorted[j-1], l.order[j-1]
		}
		l.sorted[j], l.order[j] = v, b
	}
}

// ensureOrder points the frame at its drawn limits on first need, and
// puts next past the bytes already disabled. Most frames never come
// near an endurance limit, so sampling leaves the slab undrawn; only the
// operations that read a limit draw it: AddWear once the wear reaches
// nextLimit's bound, InjectFault and NextLimit. The first of them draws
// every frame's entry; each other frame keeps its bound until it needs
// a limit itself.
func (f *Frame) ensureOrder() {
	if f.drawn {
		return
	}
	f.slab.draw()
	f.drawn = true
	f.skipDisabled()
}

// skipDisabled moves next past bytes already disabled, so nextLimit
// names a live byte, and refreshes nextLimit.
func (f *Frame) skipDisabled() {
	l := f.lim()
	for int(f.next) < FrameBytes && f.faulty(int(l.order[f.next])) {
		f.next++
	}
	f.syncNext()
}

// syncNext refreshes the cached next-death limit after next moved.
func (f *Frame) syncNext() {
	if int(f.next) < FrameBytes {
		f.nextLimit = f.lim().sorted[f.next]
	} else {
		f.nextLimit = math.Inf(1)
	}
}

// publish writes the frame's effective capacity into its capacity slot.
// Every mutator that changes live or dead calls it, so the array's
// capacity rows never go stale.
func (f *Frame) publish() {
	f.slab.caps[f.idx] = uint8(f.EffectiveCapacity())
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
	return f.nextLimit
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
	l := f.lim()
	died := 0
	for int(f.next) < FrameBytes && l.sorted[f.next] <= f.wear {
		bi := int(l.order[f.next])
		f.next++
		if f.faulty(bi) {
			continue // already disabled by fault injection
		}
		f.setFaulty(bi)
		f.live--
		died++
	}
	f.skipDisabled()
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

// Restore puts f back in the state v, a value copied from f itself
// (v := *f), and republishes its capacity. A caller can so run a frame's
// aging ahead and take it back: AgeFrames does, to find the time its
// stop is reached without committing the deaths after it. The slab is
// not rolled back: its draw is made once and gives the same limits
// whenever it is made.
func (f *Frame) Restore(v Frame) {
	*f = v
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
