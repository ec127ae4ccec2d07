// Package nvm models the non-volatile part of the hybrid LLC at the level
// the paper's policies care about: per-byte write endurance from a
// truncated normal distribution (§II-A), drawn frame by frame as an
// ascending stream of order statistics, a per-frame fault map with byte-
// or frame-granularity disabling (§III-B), intra-frame wear leveling via
// a global rotation counter, and the block-rearrangement circuitry that
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
// So a frame only ever needs the smallest limit of its live bytes. It
// draws its limits one at a time, in ascending order, as order
// statistics (see limitSlab.after), from a stream keyed by its owner's
// key, its index and its draw count. A Frame is a 64-byte header, one
// host cache line, and that header fixes its whole future.
type Frame struct {
	wear float64 // per-live-byte accumulated writes
	// nextLimit is the endurance limit of the next live byte to die,
	// +Inf once the frame is dead, so a write that kills no byte costs
	// one compare.
	nextLimit float64
	// phaseWritten counts bytes written to this frame during the current
	// simulation phase; the forecast turns it into a write rate.
	phaseWritten uint64
	// totalWritten counts bytes written over the frame's whole life; it
	// survives ResetPhase and feeds the metrics registry.
	totalWritten uint64
	faultLo      uint64 // fault map bits of bytes 0..63
	// slab is the frame's owner: its array's, or NewFrame's own. idx is
	// the frame's entry in its dense capacity bytes and, with draws, the
	// counter of the frame's next draw from the owner's keyed stream.
	slab    *limitSlab
	faultHi uint8 // fault map bits of bytes 64..65
	live    uint8 // non-faulty bytes
	draws   uint8 // values drawn from the frame's stream so far
	dead    bool  // frame disabled (always true when live < MinECB)
	gran    Granularity
	idx     uint32
	// ls is ln S(nextLimit), S the survival function of the truncated
	// distribution, so the next draw starts from it without inverting
	// nextLimit. A float32 keeps the header in one cache line; its
	// relative rounding, 6e-8, is far below what a frame's 66 draws can
	// show of the law.
	ls float32
}

// truncLo is the truncation point of the endurance distribution: a
// byte survives at least one write.
const truncLo = 1

// limitSlab is what the frames of one array share: the endurance
// distribution, the key of their streams and the dense capacity bytes
// they publish into.
type limitSlab struct {
	mean, sigma float64
	// p0 and q0 are Φ and Φ̄ at the truncation point in standard units:
	// the normal's mass below and above it.
	p0, q0 float64
	key    uint64
	caps   []uint8 // caps[i] == EffectiveCapacity of frame i
}

// newLimitSlab returns the owner of n frames drawing from model, keyed
// by one draw of r.
func newLimitSlab(model EnduranceModel, n int, r *stats.RNG) limitSlab {
	s := limitSlab{mean: model.Mean, sigma: model.Mean * model.CV, key: r.Uint64(), caps: make([]uint8, n)}
	if s.sigma > 0 {
		s.p0, s.q0 = tails((truncLo - s.mean) / s.sigma)
	}
	return s
}

// tails returns Φ(z) and Φ̄(z), each computed from Erfc on the side
// where it is small.
func tails(z float64) (p, q float64) {
	if z < 0 {
		p = math.Erfc(-z/math.Sqrt2) / 2
		return p, 1 - p
	}
	q = math.Erfc(z/math.Sqrt2) / 2
	return 1 - q, q
}

// NewFrame returns a fully functional frame with the given disabling
// granularity, whose per-byte endurance follows model, keyed by one draw
// of r. The frame owns a one-entry slab.
func NewFrame(model EnduranceModel, r *stats.RNG, gran Granularity) *Frame {
	s := newLimitSlab(model, 1, r)
	f := &Frame{slab: &s}
	f.sample(gran)
	f.publish()
	return f
}

// sample initialises f in place as a fresh frame of its slab: every byte
// live, no wear, and its smallest limit drawn.
func (f *Frame) sample(gran Granularity) {
	*f = Frame{live: FrameBytes, gran: gran, slab: f.slab, idx: f.idx}
	f.draw(truncLo, 0)
}

// next returns the frame's next draw from its stream and counts it: a
// uniform in [0, 1) and 64 uniform bits.
func (f *Frame) next() (u float64, bits uint64) {
	u, bits = stats.Keyed(f.slab.key, uint64(f.idx)<<8|uint64(f.draws))
	f.draws++
	return u, bits
}

// draw sets the next limit to the smallest of the live bytes', given
// that all of them lie above base, where ln S is ls.
func (f *Frame) draw(base float64, ls float32) {
	u, _ := f.next()
	f.nextLimit, f.ls = f.slab.after(base, ls, int(f.live), u)
}

// after returns the smallest of m limits drawn from the slab's
// distribution, a normal truncated below at truncLo, given that all m
// lie above base, and ln S there. S is the survival function and ls is
// ln S(base). It inverts S at the uniform u in [0, 1):
//
//	S(X) = S(base) · (1−u)^(1/m).
//
// Started at truncLo and fed each death's limit, this yields a frame's
// limits in ascending order with the law of the sorted draws (Rényi's
// representation of order statistics). With Φ the standard normal CDF,
// S(x) = Φ̄(z)/q0 for x in standard units z. Early deaths lie in the
// lower tail, where S is close to 1, so there the CDF is inverted
// instead, Φ(z) = p0 + q0·(1−S). Erfcinv(y), which is Erfinv(1−y),
// resolves y only to 2^-53, so exp and log (1−u is exact on u's 2^-53
// grid) lose nothing here against the slower expm1 and log1p. σ = 0
// puts every limit at the mean, or at truncLo if higher. The limit is
// never below base; where the inverse overflows (mass that far into a
// tail underflows) it is base itself.
func (s *limitSlab) after(base float64, ls float32, m int, u float64) (float64, float32) {
	base = max(base, truncLo)
	if s.sigma == 0 {
		return max(base, s.mean), 0
	}
	l := float64(ls) + math.Log(1-u)/float64(m)
	sv := math.Exp(l)
	var z float64
	if p := s.p0 + s.q0*(1-sv); p < 0.5 {
		z = -math.Sqrt2 * math.Erfcinv(2*p)
	} else {
		z = math.Sqrt2 * math.Erfcinv(2*s.q0*sv)
	}
	if x := s.mean + s.sigma*z; x >= base && !math.IsInf(x, 1) {
		return x, float32(l)
	}
	return base, ls
}

// logSurvival returns ln S(x), S the survival function of the slab's
// distribution.
func (s *limitSlab) logSurvival(x float64) float32 {
	if s.sigma == 0 || x <= truncLo {
		return 0
	}
	p, q := tails((x - s.mean) / s.sigma)
	if q < 0.5 {
		return float32(math.Log(q / s.q0))
	}
	return float32(math.Log1p(-(p - s.p0) / s.q0))
}

// liveByte returns the index of the j-th live byte, counting from 0. It
// halves the 64-bit word that holds it six times, without a branch on
// the random j.
func (f *Frame) liveByte(j int) int {
	x, at := ^f.faultLo, 0
	if c := bits.OnesCount64(x); j >= c {
		x, at, j = uint64(^f.faultHi&3), 64, j-c
	}
	for w := 32; w > 0; w >>= 1 {
		// up is 1 when the byte lies above the low w bits of x.
		c := bits.OnesCount64(x & (1<<w - 1))
		up := int(uint(c-j-1) >> 63)
		x >>= w * up
		at += w * up
		j -= c * up
	}
	return at
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

// NextLimit returns the endurance limit of the next byte to die, or +Inf
// once the frame is dead.
func (f *Frame) NextLimit() float64 { return f.nextLimit }

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
//
// Each death disables a live byte picked uniformly, so the fault map
// keeps the law of disabling the byte with the smallest limit, and draws
// the next limit above the one just crossed. A frame that the death
// disables draws no more.
func (f *Frame) AddWear(delta float64) int {
	if f.dead {
		return 0
	}
	f.wear += delta
	if f.nextLimit > f.wear {
		return 0 // the common case: no limit crossed
	}
	died := 0
	for f.nextLimit <= f.wear {
		u, pick := f.next()
		hi, _ := bits.Mul64(pick, uint64(f.live))
		f.setFaulty(f.liveByte(int(hi)))
		f.live--
		died++
		if f.gran == FrameDisabling || f.live < MinECB {
			f.kill()
			break
		}
		f.nextLimit, f.ls = f.slab.after(f.nextLimit, f.ls, int(f.live), u)
	}
	f.publish()
	return died
}

// kill marks the frame dead; it never draws again.
func (f *Frame) kill() {
	f.dead = true
	f.nextLimit = math.Inf(1)
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
	f.kill()
	f.publish()
}

// Restore puts f back in the state v, a value copied from f itself
// (v := *f), and republishes its capacity. A caller can so run a frame's
// aging ahead and take it back: AgeFrames does, to find the time its
// stop is reached without committing the deaths after it. The header
// holds the frame's draw count, so the restored frame draws the same
// limits and picks the same bytes again.
func (f *Frame) Restore(v Frame) {
	*f = v
	f.publish()
}

// InjectFault forcibly disables byte i (used by fault-injection tests).
// The next limit is drawn again, for the live bytes left, above the
// current wear: they have all survived it.
func (f *Frame) InjectFault(i int) {
	if f.dead || f.faulty(i) {
		return
	}
	f.setFaulty(i)
	f.live--
	if f.gran == FrameDisabling || f.live < MinECB {
		f.kill()
	} else {
		f.draw(f.wear, f.slab.logSurvival(f.wear))
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
