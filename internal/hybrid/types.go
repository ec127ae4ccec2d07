// Package hybrid implements the paper's hybrid NVM-SRAM last-level cache:
// a set-associative cache whose ways are split between SRAM frames (fast,
// wear-free, uncompressed) and NVM frames (dense, wear-limited, optionally
// storing BDI-compressed blocks over byte-level fault maps). Insertion
// policies steer incoming blocks into one of the two parts (§IV); the NVM
// replacement uses Fit-LRU over the frames the compressed block fits in
// (§III-B1).
package hybrid

import (
	"fmt"

	"repro/internal/nvm"
)

// Partition identifies one of the LLC's two technology parts.
type Partition uint8

// Partitions.
const (
	SRAM Partition = iota
	NVM
)

// String names the partition.
func (p Partition) String() string {
	switch p {
	case SRAM:
		return "SRAM"
	case NVM:
		return "NVM"
	}
	return fmt.Sprintf("Partition(%d)", uint8(p))
}

// ReuseClass is the paper's three-way block classification (§IV-B):
// blocks with no demonstrated reuse, read-reused blocks and write-reused
// blocks. Read-reuse corresponds to LHybrid's loop-blocks.
type ReuseClass uint8

// Reuse classes.
const (
	ReuseNone ReuseClass = iota
	ReuseRead
	ReuseWrite
)

// String names the reuse class.
func (r ReuseClass) String() string {
	switch r {
	case ReuseNone:
		return "none"
	case ReuseRead:
		return "read"
	case ReuseWrite:
		return "write"
	}
	return fmt.Sprintf("ReuseClass(%d)", uint8(r))
}

// BlockTag is the policy metadata that travels with a block between the
// LLC and the private levels: the CA_RWR reuse class, the LHybrid
// loop-block bit, and the TAP LLC-hit counter. It packs into the single
// flags byte of a cache line.
type BlockTag struct {
	Reuse      ReuseClass // CA_RWR class
	LB         bool       // LHybrid loop-block
	Hits       uint8      // TAP LLC-hit counter, saturating at 7
	Prefetched bool       // block was brought in by the prefetcher (TAP's prefetch class)
}

// Pack encodes the tag into one byte: bits 0-1 reuse, bit 2 LB,
// bits 3-5 hit counter, bit 6 prefetched.
func (t BlockTag) Pack() uint8 {
	h := t.Hits
	if h > 7 {
		h = 7
	}
	v := uint8(t.Reuse) & 3
	if t.LB {
		v |= 1 << 2
	}
	if t.Prefetched {
		v |= 1 << 6
	}
	return v | h<<3
}

// UnpackTag decodes a tag packed with Pack.
func UnpackTag(v uint8) BlockTag {
	return BlockTag{
		Reuse:      ReuseClass(v & 3),
		LB:         v&(1<<2) != 0,
		Hits:       (v >> 3) & 7,
		Prefetched: v&(1<<6) != 0,
	}
}

// InsertInfo carries everything a policy may consult when steering an
// incoming block (§IV, Table II).
type InsertInfo struct {
	Set    int
	Block  uint64 // block address (phase detectors classify its stream)
	Dirty  bool
	CBSize int // BDI-compressed size in bytes (64 when not compressible)
	Tag    BlockTag
	CPth   int // compression threshold in effect for this set
}

// Small reports whether the block is a "small block" under the threshold:
// compressed size lower than or equal to CPth (§IV-A).
func (i InsertInfo) Small() bool { return i.CBSize <= i.CPth }

// Policy is an LLC insertion policy. The paper's policies are stateless
// values describing behaviour, with all state in the LLC entries and
// block tags; RRIP-family extensions may carry per-set state of their own
// (deterministic, event-driven, and keyed by set so runs replay exactly).
type Policy interface {
	// Name returns the paper's identifier for the policy (e.g. "CP_SD").
	Name() string
	// Compressed reports whether the NVM part stores BDI-compressed
	// blocks (requires byte-level disabling).
	Compressed() bool
	// Granularity is the hard-fault disabling granularity (Table III).
	Granularity() nvm.Granularity
	// Global reports whether replacement is a single LRU (or Fit-LRU)
	// list across both parts, as in BH and BH_CP, making Target unused.
	Global() bool
	// Target steers an incoming block to a partition. Only called when
	// Global is false.
	Target(info InsertInfo) Partition
	// MigrateReadReuse reports whether an SRAM victim with read reuse is
	// migrated to the NVM part on eviction (CA_RWR family, §IV-B).
	MigrateReadReuse() bool
	// LHybridMigrate reports whether SRAM replacement prefers migrating
	// the most-recent loop-block to NVM (LHybrid, §II-C).
	LHybridMigrate() bool
	// UsesThreshold reports whether Target consults CPth, so the LLC can
	// feed set-dueling counters only for policies that need them.
	UsesThreshold() bool
}

// SetPolicyResolver is implemented by meta-policies that present a
// different underlying policy per set — the N-way policy tournament,
// where sampler sets each run one candidate and follower sets run the
// epoch winner. When the LLC's policy implements it, every per-insert
// decision (Target, migration behaviour, insertion RRPV, NVM victim
// scheme) is taken from PolicyFor(set) instead of the top-level policy.
// Whole-cache properties (Compressed, Granularity, Global) remain the
// meta-policy's own and must agree across all resolved policies.
type SetPolicyResolver interface {
	// PolicyFor returns the policy governing a set. It must be
	// deterministic given the controller state (sampler assignment plus
	// current winner) so runs replay exactly.
	PolicyFor(set int) Policy
}

// RRIPInserter is implemented by RRIP-family insertion policies
// (SRRIP/BRRIP and derivatives). A policy that implements it switches the
// NVM part of its sets to fit-RRIP victim selection, and InsertRRPV
// supplies the re-reference prediction value new NVM-resident blocks are
// inserted with (0 = near-immediate re-reference, 3 = distant). The
// compressed size class typically modulates the value: highly compressed
// blocks fit even aged frames and are cheap to retain.
type RRIPInserter interface {
	// InsertRRPV returns the insertion RRPV (0..3) for an incoming block.
	// Implementations may keep deterministic per-set state (BRRIP's
	// insertion counter, phase classifiers), advanced only from this
	// call and Target.
	InsertRRPV(info InsertInfo) uint8
}

// SetMapper remaps the logical set index (block mod sets) to the
// physical directory/frame row the LLC actually uses — inter-set
// wear-leveling (cache coloring). The mapping must be a bijection on
// [0, sets) between Epoch calls. The internal/coloring schemes
// implement it; the interface lives here so the LLC does not depend on
// that package.
//
// Epoch is called exactly once per epoch boundary, by the LLC itself
// when Config.SetMapperAdvance is set. A true return means the mapping
// changed; the LLC then flushes the directory rows whose mapping moved.
type SetMapper interface {
	// Map returns the physical row for a logical set index.
	Map(logical int) int
	// Epoch advances the mapper's epoch counter with the cumulative
	// per-physical-row wear (nil without an NVM part) and reports
	// whether the mapping changed.
	Epoch(rowWear []float64) bool
}

// ThresholdProvider supplies the per-set compression threshold and absorbs
// the set-dueling counters (§IV-C). The dueling package implements it; a
// FixedThreshold suffices for CA and CA_RWR.
type ThresholdProvider interface {
	// CPthFor returns the threshold in effect for the set.
	CPthFor(set int) int
	// RecordHit accounts one LLC hit in the set.
	RecordHit(set int)
	// RecordNVMBytes accounts n bytes written to the set's NVM frames.
	RecordNVMBytes(set int, n int)
	// EndEpoch closes the current epoch and applies the selection rule.
	EndEpoch()
}

// FixedThreshold is a ThresholdProvider that always returns the same CPth
// and ignores the counters.
type FixedThreshold int

// CPthFor returns the fixed threshold.
func (f FixedThreshold) CPthFor(int) int { return int(f) }

// RecordHit is a no-op.
func (FixedThreshold) RecordHit(int) {}

// RecordNVMBytes is a no-op.
func (FixedThreshold) RecordNVMBytes(int, int) {}

// EndEpoch is a no-op.
func (FixedThreshold) EndEpoch() {}
