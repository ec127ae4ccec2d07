package policy

import (
	"repro/internal/bdi"
	"repro/internal/hybrid"
)

// RRIP re-reference prediction values (2-bit, as in the ChampSim
// exemplars): 0 predicts near-immediate re-reference, 3 distant.
const (
	rrpvShort   = 1 // retained: highly compressible or temporal blocks
	rrpvLong    = 2 // SRRIP's standard "long" insertion
	rrpvDistant = 3 // scan suspects: first eviction candidates
)

// brripThrottle makes BRRIP insert at rrpvLong only every 32nd NVM
// insertion of a set (deterministic, per-set — the bimodal low
// probability of the literature without a random source, so runs
// replay bit for bit).
const brripThrottle = 32

// sizeClassRRPV modulates a base insertion RRPV by the compressed size
// class — the hybrid-ways adaptation of the RRIP family. Highly
// compressed (HCR) blocks fit even heavily aged frames, cost few NVM
// byte-writes to retain and free the most effective capacity, so they
// are predicted one step nearer re-reference; incompressible blocks
// occupy a full frame and are predicted one step more distant.
func sizeClassRRPV(base uint8, cb int) uint8 {
	switch {
	case cb <= bdi.HCRLimit:
		if base > 0 {
			base--
		}
	case cb >= bdi.BlockSize:
		if base < rrpvDistant {
			base++
		}
	}
	return base
}

// SRRIP is static RRIP adapted to compressed hybrid ways: every NVM
// insertion is predicted "long" (RRPV 2), modulated by the compressed
// size class. It is the thrash-resistant reference point of the family
// and one of DRRIP's two duelled components.
type SRRIP struct {
	CARWR
}

// NewSRRIP builds the SRRIP insertion policy.
func NewSRRIP() *SRRIP { return &SRRIP{} }

// Name implements hybrid.Policy.
func (*SRRIP) Name() string { return "SRRIP" }

// InsertRRPV implements hybrid.RRIPInserter.
func (*SRRIP) InsertRRPV(info hybrid.InsertInfo) uint8 {
	return sizeClassRRPV(rrpvLong, info.CBSize)
}

// BRRIP is bimodal RRIP adapted to compressed hybrid ways: NVM
// insertions are predicted "distant" (RRPV 3) except every 32nd
// insertion of a set, which gets the SRRIP "long" prediction — the
// classic anti-thrashing bimodal throttle, made deterministic with a
// per-set counter so runs are replayable. The size
// class modulates the result as for SRRIP.
type BRRIP struct {
	CARWR
	ctr []uint8 // per-set NVM insertion counter, wraps at brripThrottle
}

// NewBRRIP builds the BRRIP insertion policy for a cache with the given
// number of sets.
func NewBRRIP(sets int) *BRRIP { return &BRRIP{ctr: make([]uint8, sets)} }

// Name implements hybrid.Policy.
func (*BRRIP) Name() string { return "BRRIP" }

// InsertRRPV implements hybrid.RRIPInserter.
func (p *BRRIP) InsertRRPV(info hybrid.InsertInfo) uint8 {
	base := uint8(rrpvDistant)
	p.ctr[info.Set]++
	if p.ctr[info.Set] >= brripThrottle {
		p.ctr[info.Set] = 0
		base = rrpvLong
	}
	return sizeClassRRPV(base, info.CBSize)
}

// PAR is phase-adaptive RRIP (after MPAR): a per-set phase detector
// classifies the recent insert stream as spatial (streaming/scan),
// temporal (re-referencing) or irregular, and the insertion RRPV follows
// the class — distant for scans (their blocks will not return before
// eviction), short for temporal phases, SRRIP's long otherwise. The
// detector state is per-set and event-driven, so PAR is deterministic
// like the rest of the family.
type PAR struct {
	CARWR
	det *PhaseDetector
}

// NewPAR builds the phase-adaptive policy for a cache with the given
// number of sets.
func NewPAR(sets int) *PAR { return &PAR{det: NewPhaseDetector(sets)} }

// Name implements hybrid.Policy.
func (*PAR) Name() string { return "PAR" }

// Detector exposes the phase detector (diagnostics and tests).
func (p *PAR) Detector() *PhaseDetector { return p.det }

// Target implements hybrid.Policy: PAR observes the insert stream here
// (the one policy callback per fresh insert) and then steers like the
// rest of the family.
func (p *PAR) Target(info hybrid.InsertInfo) hybrid.Partition {
	p.det.Observe(info.Set, info.Block)
	return p.CARWR.Target(info)
}

// InsertRRPV implements hybrid.RRIPInserter.
func (p *PAR) InsertRRPV(info hybrid.InsertInfo) uint8 {
	var base uint8
	switch p.det.Classify(info.Set) {
	case PhaseSpatial:
		base = rrpvDistant
	case PhaseTemporal:
		base = rrpvShort
	default:
		base = rrpvLong
	}
	return sizeClassRRPV(base, info.CBSize)
}
