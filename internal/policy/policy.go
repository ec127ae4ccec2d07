// Package policy implements every insertion policy evaluated in the paper
// (Table III plus the intermediate CA and CA_RWR designs of §IV):
//
//	BH       — NVM-unaware baseline hybrid: global LRU, frame disabling.
//	BH_CP    — BH plus compression and byte disabling: global Fit-LRU.
//	CA       — naive compression-aware: small blocks to NVM, big to SRAM.
//	CA_RWR   — CA plus read/write-reuse steering (Table II).
//	CP_SD    — CA_RWR with the set-dueling threshold (pair it with a
//	           dueling.Controller; Th/Tw select the CP_SD_Th variants).
//	LHybrid  — loop-block-aware state of the art (frame disabling).
//	TAP      — thrashing-aware, more conservative than LHybrid.
//	SRAMOnly — pure-SRAM bounds (16w upper, 4w lower in the paper).
package policy

import "repro/internal/hybrid"

// BH is the baseline hybrid LLC: a single LRU list across all ways,
// oblivious to which ways are NVM, storing uncompressed blocks, with
// frame-granularity disabling (§II-D).
type BH struct{}

// Name implements hybrid.Policy.
func (BH) Name() string { return "BH" }

// Traits implements hybrid.Policy.
func (BH) Traits() hybrid.Traits { return hybrid.Traits{Global: true} }

// Target implements hybrid.Policy; unused for global policies.
func (BH) Target(hybrid.InsertInfo) hybrid.Partition { return hybrid.SRAM }

// SRAMOnly models the paper's SRAM LLC bounds; it behaves exactly like BH
// (global LRU) and is intended for configurations with zero NVM ways.
type SRAMOnly struct{ BH }

// Name implements hybrid.Policy.
func (SRAMOnly) Name() string { return "SRAM" }

// BHCP is BH extended with BDI compression and byte disabling but still
// NVM-unaware: the victim is the LRU block among all frames (either part)
// with effective capacity at least the incoming compressed size (§V-B).
type BHCP struct{}

// Name implements hybrid.Policy.
func (BHCP) Name() string { return "BH_CP" }

// Traits implements hybrid.Policy.
func (BHCP) Traits() hybrid.Traits { return hybrid.Traits{Compressed: true, Global: true} }

// Target implements hybrid.Policy; unused for global policies.
func (BHCP) Target(hybrid.InsertInfo) hybrid.Partition { return hybrid.SRAM }

// CA is the naive compression-aware policy of §IV-A: small blocks
// (compressed size <= CPth) go to NVM, big blocks to SRAM, with local LRU
// in each part. Pair it with hybrid.FixedThreshold.
type CA struct{}

// Name implements hybrid.Policy.
func (CA) Name() string { return "CA" }

// Traits implements hybrid.Policy.
func (CA) Traits() hybrid.Traits { return hybrid.Traits{Compressed: true} }

// Target implements hybrid.Policy.
func (CA) Target(info hybrid.InsertInfo) hybrid.Partition {
	if info.Small() {
		return hybrid.NVM
	}
	return hybrid.SRAM
}

// CARWR adds read/write-reuse steering to CA (§IV-B, Table II):
//
//	reuse class | small block | big block
//	none        | NVM         | SRAM
//	read        | NVM         | NVM
//	write       | SRAM        | SRAM
//
// plus migration of read-reused SRAM victims to NVM. With a fixed
// threshold this is CA_RWR; with a dueling.Controller it is CP_SD.
type CARWR struct {
	// PolicyName lets the same mechanics present as CA_RWR, CP_SD or
	// CP_SD_Th depending on the threshold provider in use.
	PolicyName string

	// NoMigration ablates the SRAM-victim migration of §IV-B: read-reused
	// blocks evicted from SRAM are discarded instead of moved to NVM.
	NoMigration bool
}

// Name implements hybrid.Policy.
func (p CARWR) Name() string {
	if p.PolicyName == "" {
		return "CA_RWR"
	}
	return p.PolicyName
}

// Traits implements hybrid.Policy.
func (p CARWR) Traits() hybrid.Traits {
	if p.NoMigration {
		return hybrid.Traits{Compressed: true}
	}
	return hybrid.Traits{Compressed: true, Migrate: hybrid.MigrateReadReuse}
}

// Target implements hybrid.Policy (Table II).
func (CARWR) Target(info hybrid.InsertInfo) hybrid.Partition {
	switch info.Tag.Reuse {
	case hybrid.ReuseRead:
		return hybrid.NVM
	case hybrid.ReuseWrite:
		return hybrid.SRAM
	default:
		if info.Small() {
			return hybrid.NVM
		}
		return hybrid.SRAM
	}
}

// LHybrid is the loop-block-aware state-of-the-art policy (§II-C): blocks
// tagged LB (clean blocks that hit in the LLC) are inserted into NVM,
// everything else into SRAM; SRAM replacement migrates the most recent
// loop-block to NVM. Frame disabling, no compression (Table III).
type LHybrid struct{}

// Name implements hybrid.Policy.
func (LHybrid) Name() string { return "LHybrid" }

// Traits implements hybrid.Policy.
func (LHybrid) Traits() hybrid.Traits { return hybrid.Traits{Migrate: hybrid.MigrateLoopBlock} }

// Target implements hybrid.Policy.
func (LHybrid) Target(info hybrid.InsertInfo) hybrid.Partition {
	if info.Tag.LB {
		return hybrid.NVM
	}
	return hybrid.SRAM
}

// TAP is the thrashing-aware policy (§II-C): only clean blocks that have
// hit in the LLC more than HThresh times (thrashing blocks) are inserted
// into the NVM part, making it more conservative than LHybrid.
type TAP struct {
	// HThresh is the hit-count threshold; a block needs more than HThresh
	// LLC hits to qualify. The paper's characterisation ("a block needs
	// to show reuse more than once") corresponds to HThresh = 1.
	HThresh uint8
}

// Name implements hybrid.Policy.
func (TAP) Name() string { return "TAP" }

// Traits implements hybrid.Policy.
func (TAP) Traits() hybrid.Traits { return hybrid.Traits{} }

// Target implements hybrid.Policy.
func (p TAP) Target(info hybrid.InsertInfo) hybrid.Partition {
	th := p.HThresh
	if th == 0 {
		th = 1
	}
	if !info.Dirty && info.Tag.Hits > th {
		return hybrid.NVM
	}
	return hybrid.SRAM
}
