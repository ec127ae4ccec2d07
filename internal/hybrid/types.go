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
	Dirty  bool
	CBSize int // BDI-compressed size in bytes (64 when not compressible)
	Tag    BlockTag
	CPth   int // compression threshold in effect for this set
}

// Small reports whether the block is a "small block" under the threshold:
// compressed size lower than or equal to CPth (§IV-A).
func (i InsertInfo) Small() bool { return i.CBSize <= i.CPth }

// Migration is what SRAM replacement does with its victim.
type Migration uint8

// Migrations.
const (
	// MigrateNone evicts the LRU SRAM victim.
	MigrateNone Migration = iota
	// MigrateReadReuse moves a read-reused LRU SRAM victim to the NVM
	// part instead of evicting it (CA_RWR family, §IV-B).
	MigrateReadReuse
	// MigrateLoopBlock vacates the most recent loop-block in preference
	// to the LRU way and moves it to the NVM part (LHybrid, §II-C).
	MigrateLoopBlock
)

// Traits are the properties a policy shares with its Table III row.
type Traits struct {
	// Compressed: the NVM part stores BDI-compressed blocks over
	// byte-level disabling. Otherwise blocks are stored uncompressed
	// and hard faults disable whole frames.
	Compressed bool
	// Global: replacement is one (Fit-)LRU list across both parts, as in
	// BH and BH_CP, so Target is never consulted.
	Global bool
	// Migrate is the SRAM-victim migration.
	Migrate Migration
}

// Granularity is the hard-fault disabling granularity the traits imply.
func (t Traits) Granularity() nvm.Granularity {
	if t.Compressed {
		return nvm.ByteDisabling
	}
	return nvm.FrameDisabling
}

// Policy is an LLC insertion policy. The paper's policies are stateless
// values describing behaviour, with all state in the LLC entries and
// block tags.
type Policy interface {
	// Name returns the paper's identifier for the policy (e.g. "CP_SD").
	Name() string
	// Traits returns the policy's Table III properties. They must not
	// change over the policy's lifetime.
	Traits() Traits
	// Target steers an incoming block to a partition. Only called when
	// the traits are not Global.
	Target(info InsertInfo) Partition
}

// SetMapper remaps the logical set index (block mod sets) to the
// physical directory/frame row the LLC actually uses — inter-set
// wear-leveling (cache coloring). The mapping must be a bijection on
// [0, sets) between Epoch calls. coloring.WearFeedback implements it;
// the interface lives here so the LLC does not depend on that package.
//
// Epoch is called exactly once per epoch boundary, by the LLC itself
// when Config.SetMapperAdvance is set. It returns the physical rows
// whose logical preimage changed, and the LLC flushes exactly those
// rows; every other row still holds only blocks that map to it.
type SetMapper interface {
	// Map returns the physical row for a logical set index.
	Map(logical int) int
	// Epoch advances the mapper's epoch counter with the cumulative
	// per-physical-row wear (nil without an NVM part) and returns the
	// rows it remapped, empty when the mapping did not change. The
	// slice is owned by the mapper and valid until the next call.
	Epoch(rowWear []float64) []int
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
