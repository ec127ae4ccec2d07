package hybrid

import (
	"fmt"

	"repro/internal/bdi"
	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/nvm"
)

// Config describes an LLC instance.
type Config struct {
	Sets     int
	SRAMWays int
	NVMWays  int
	Policy   Policy
	// Thresholds supplies per-set CPth values; use FixedThreshold for CA
	// and CA_RWR, a dueling.Controller for CP_SD. May be nil when the
	// policy does not consult thresholds.
	Thresholds ThresholdProvider
	Endurance  nvm.EnduranceModel
	Sampler    nvm.Sampler

	// HCROnly ablates the paper's modified BDI back to the original one:
	// low-compression-ratio encodings are discarded, so blocks that only
	// compress above the HCR limit are stored uncompressed (§II-B argues
	// keeping LCR encodings; this flag quantifies that choice).
	HCROnly bool

	// NoGetXInvalidate ablates the invalidate-on-GetX-hit coherence flow
	// of §III-A: the LLC keeps its (now stale) copy, and the dirty block
	// overwrites it in place when evicted from L2.
	NoGetXInvalidate bool

	// MaterializeData runs the full Fig-5 data path (SECDED + scatter)
	// for every NVM block, verifying reads bit-exactly. Validation mode:
	// roughly 10x slower. Requires a compressing policy.
	MaterializeData bool

	// NVMReplacement selects the victim-choice scheme inside the NVM
	// part. The paper uses (Fit-)LRU; FitRRIP is an extension using
	// 2-bit re-reference prediction values (SRRIP), which resists
	// thrashing better on scan-heavy workloads.
	NVMReplacement Replacement

	// Metrics is the registry the LLC attaches its counters to; nil
	// makes the LLC create its own. One registry serves one LLC — the
	// counter names collide otherwise.
	Metrics *metrics.Registry

	// SetMapper remaps the logical set index to the physical
	// directory/frame row (inter-set wear leveling, internal/coloring).
	// nil is the identity mapping — the classic path, byte for byte.
	SetMapper SetMapper

	// SetMapperAdvance makes the LLC advance the mapper at its own
	// EndEpoch boundaries and flush the remapped rows when the mapping
	// changes. core.Build always sets it; without it the mapping stays
	// fixed unless the caller advances the mapper itself.
	SetMapperAdvance bool
}

// Replacement selects the NVM-part victim scheme.
type Replacement uint8

// Replacement schemes.
const (
	// FitLRU is the paper's scheme: LRU among fitting frames (§III-B1).
	FitLRU Replacement = iota
	// FitRRIP is SRRIP restricted to fitting frames: insert at RRPV 2,
	// promote to 0 on hit, evict the first fitting entry with RRPV 3,
	// aging all candidates when none qualifies.
	FitRRIP
)

// String names the scheme.
func (r Replacement) String() string {
	switch r {
	case FitLRU:
		return "fit-LRU"
	case FitRRIP:
		return "fit-RRIP"
	}
	return fmt.Sprintf("Replacement(%d)", uint8(r))
}

// Stats aggregates LLC activity counters. All counters are cumulative
// until ResetStats.
type Stats struct {
	GetS, GetX        uint64 // requests from the private levels
	Hits, Misses      uint64
	SRAMHits          uint64
	NVMHits           uint64
	Inserts           uint64
	SRAMInserts       uint64
	NVMInserts        uint64
	NVMBlockWrites    uint64 // block writes into NVM frames (inserts + updates)
	NVMBytesWritten   uint64 // ECB bytes written into NVM frames
	Migrations        uint64 // SRAM->NVM migrations (CA_RWR / LHybrid)
	Writebacks        uint64 // dirty LLC evictions sent to memory
	NVMFallbacks      uint64 // NVM-targeted blocks placed in SRAM for lack of fit
	InPlaceUpdates    uint64 // dirty L2 evictions updating an existing LLC copy
	InsertHCR         uint64 // inserted blocks by compression class
	InsertLCR         uint64
	InsertIncomp      uint64
	InvalidatedOnGetX uint64
	// DataPathErrors counts materialized-mode verification failures;
	// always zero for a correct data path.
	DataPathErrors uint64
}

// HitRate returns hits over total requests.
func (s *Stats) HitRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Hits) / float64(t)
}

type entry struct {
	valid bool
	dirty bool
	cb    uint8 // compressed size of the stored block
	rrpv  uint8 // re-reference prediction value (RRIP NVM replacement)
	tag   BlockTag
	block uint64
}

// LLC is the hybrid last-level cache. Ways [0, SRAMWays) are SRAM;
// ways [SRAMWays, SRAMWays+NVMWays) map to NVM frames.
//
// The fields the per-access scans read sit in dense arrays beside the
// entries, indexed like them (set*ways + way): blocks mirrors each
// valid entry's block for the tag compare of find, and last holds the
// LRU timestamps the victim scans compare, 0 exactly for invalid ways.
// Only fill and clear write an entry's validity or block, and they keep
// both arrays in step; CheckInvariants verifies the mirrors.
type LLC struct {
	sets, sramWays, nvmWays int
	nways                   int    // sramWays + nvmWays
	setMask                 uint64 // cache.SetMask(sets)
	entries                 []entry
	blocks                  []uint64 // blocks[i] == entries[i].block for valid entries
	last                    []uint64 // LRU timestamp of entries[i]; 0 exactly when invalid
	arr                     *nvm.Array
	pol                     Policy
	thr                     ThresholdProvider
	tick                    uint64
	hcrOnly                 bool
	noGetXInval             bool
	data                    *dataStore
	nvmRepl                 Replacement
	resolver                SetPolicyResolver // non-nil for tournament meta-policies
	polRRIP                 RRIPInserter      // non-nil when pol itself is RRIP-family
	reg                     *metrics.Registry

	mapper        SetMapper
	mapperAdvance bool
	rowWear       []float64 // scratch for RowWear

	Stats Stats
}

// AccessResult reports the outcome of a GetS/GetX request.
type AccessResult struct {
	Hit   bool
	Part  Partition // where the block was found (valid on hit)
	Dirty bool      // for GetX hits: ownership of dirty data moves to L2
	Tag   BlockTag  // updated tag to be stored alongside the block in L2
}

// InsertOutcome reports what an Insert did, so the hierarchy's timing
// model can account bank/write-port occupancy.
type InsertOutcome struct {
	Wrote bool      // a data-array write happened (fresh fill or dirty update)
	Part  Partition // which partition was written
}

// New builds an LLC.
func New(cfg Config) *LLC {
	if cfg.Sets <= 0 || cfg.SRAMWays < 0 || cfg.NVMWays < 0 || cfg.SRAMWays+cfg.NVMWays == 0 {
		panic(fmt.Sprintf("hybrid: invalid geometry %d sets, %d+%d ways",
			cfg.Sets, cfg.SRAMWays, cfg.NVMWays))
	}
	if cfg.Policy == nil {
		panic("hybrid: nil policy")
	}
	thr := cfg.Thresholds
	if thr == nil {
		thr = FixedThreshold(bdi.BlockSize)
	}
	n := cfg.Sets * (cfg.SRAMWays + cfg.NVMWays)
	l := &LLC{
		sets:        cfg.Sets,
		sramWays:    cfg.SRAMWays,
		nvmWays:     cfg.NVMWays,
		nways:       cfg.SRAMWays + cfg.NVMWays,
		setMask:     cache.SetMask(cfg.Sets),
		entries:     make([]entry, n),
		blocks:      make([]uint64, n),
		last:        make([]uint64, n),
		pol:         cfg.Policy,
		thr:         thr,
		hcrOnly:     cfg.HCROnly,
		noGetXInval: cfg.NoGetXInvalidate,
		nvmRepl:     cfg.NVMReplacement,
	}
	l.resolver, _ = cfg.Policy.(SetPolicyResolver)
	l.polRRIP, _ = cfg.Policy.(RRIPInserter)
	l.mapper = cfg.SetMapper
	l.mapperAdvance = cfg.SetMapperAdvance
	if cfg.NVMWays > 0 {
		l.arr = nvm.NewArray(cfg.Sets, cfg.NVMWays, cfg.Endurance, cfg.Sampler, cfg.Policy.Granularity())
	}
	if cfg.MaterializeData {
		if cfg.NVMWays == 0 {
			panic("hybrid: MaterializeData needs NVM ways")
		}
		l.initMaterialize()
	}
	l.reg = cfg.Metrics
	if l.reg == nil {
		l.reg = metrics.NewRegistry()
	}
	l.registerMetrics(l.reg)
	return l
}

// Sets returns the number of sets.
func (l *LLC) Sets() int { return l.sets }

// SRAMWays returns the number of SRAM ways per set.
func (l *LLC) SRAMWays() int { return l.sramWays }

// NVMWays returns the number of NVM ways per set.
func (l *LLC) NVMWays() int { return l.nvmWays }

// Policy returns the insertion policy in use.
func (l *LLC) Policy() Policy { return l.pol }

// Thresholds returns the threshold provider in use.
func (l *LLC) Thresholds() ThresholdProvider { return l.thr }

// Array returns the NVM array (nil for SRAM-only configurations); the
// forecast procedure ages it between simulation phases.
func (l *LLC) Array() *nvm.Array { return l.arr }

// CompressionEnabled reports whether insertions need block contents.
func (l *LLC) CompressionEnabled() bool { return l.pol.Compressed() }

// SetOf maps a block address to the physical set (directory/frame row)
// holding it: the logical index (block mod sets) pushed through the
// coloring mapper when one is configured.
func (l *LLC) SetOf(block uint64) int {
	s := cache.SetIndex(block, l.sets, l.setMask)
	if l.mapper != nil {
		s = l.mapper.Map(s)
	}
	return s
}

func (l *LLC) ways() int { return l.nways }

// policyFor resolves the policy governing a set: the tournament
// candidate assigned to (or adopted by) the set for meta-policies, the
// configured policy otherwise. Every per-insert decision goes through it.
func (l *LLC) policyFor(set int) Policy {
	if l.resolver != nil {
		return l.resolver.PolicyFor(set)
	}
	return l.pol
}

// rripFor returns the RRIP inserter governing a set, nil when the set's
// policy is not RRIP-family.
func (l *LLC) rripFor(set int) RRIPInserter {
	if l.resolver != nil {
		ri, _ := l.resolver.PolicyFor(set).(RRIPInserter)
		return ri
	}
	return l.polRRIP
}

// slot returns the flat index of (set, way) into the entry, blocks and
// last arrays (and the materialized-mode side arrays).
func (l *LLC) slot(set, way int) int { return set*l.nways + way }

func (l *LLC) entryAt(set, way int) *entry { return &l.entries[l.slot(set, way)] }

func (l *LLC) partOf(way int) Partition {
	if way < l.sramWays {
		return SRAM
	}
	return NVM
}

func (l *LLC) frameOf(set, way int) *nvm.Frame {
	return l.arr.Frame(set, way-l.sramWays)
}

// touch makes the entry at (set, way) the most recently used.
func (l *LLC) touch(set, way int) {
	l.tick++
	l.last[l.slot(set, way)] = l.tick
}

// fill installs a valid entry at (set, way) and makes it MRU.
func (l *LLC) fill(set, way int, e entry) {
	i := l.slot(set, way)
	l.entries[i] = e
	l.blocks[i] = e.block
	l.touch(set, way)
}

// clear invalidates the entry at (set, way). The blocks mirror keeps its
// stale value; find checks validity on a match.
func (l *LLC) clear(set, way int) {
	i := l.slot(set, way)
	l.entries[i] = entry{}
	l.last[i] = 0
}

func (l *LLC) find(block uint64) (set, way int, e *entry) {
	set = l.SetOf(block)
	base := set * l.nways
	for w, b := range l.blocks[base : base+l.nways] {
		if b == block {
			if c := &l.entries[base+w]; c.valid {
				return set, w, c
			}
		}
	}
	return set, -1, nil
}

// GetS handles a read request from a private level that missed in L2.
// On a hit the block stays in the LLC; its tag is updated per §IV-B
// (read-reuse if clean, write-reuse if dirty; LHybrid LB promotion on clean
// hits; TAP hit counter).
func (l *LLC) GetS(block uint64) AccessResult {
	l.Stats.GetS++
	set, way, e := l.find(block)
	if e == nil {
		l.Stats.Misses++
		return AccessResult{}
	}
	l.Stats.Hits++
	l.thr.RecordHit(set)
	part := l.partOf(way)
	if part == SRAM {
		l.Stats.SRAMHits++
	} else {
		l.Stats.NVMHits++
	}
	l.verifyMaterialized(set, way)
	if e.dirty {
		e.tag.Reuse = ReuseWrite
	} else {
		e.tag.Reuse = ReuseRead
		e.tag.LB = true // LHybrid: clean read-hit promotes to loop-block
	}
	if e.tag.Hits < 7 {
		e.tag.Hits++
	}
	e.rrpv = 0 // RRIP: near-immediate re-reference
	l.touch(set, way)
	return AccessResult{Hit: true, Part: part, Tag: e.tag}
}

// GetX handles a request with write permission. A hit returns the block to
// the private levels and invalidates the LLC copy (§III-A); the block is
// tagged write-reused and loses its loop-block status.
func (l *LLC) GetX(block uint64) AccessResult {
	l.Stats.GetX++
	set, way, e := l.find(block)
	if e == nil {
		l.Stats.Misses++
		return AccessResult{}
	}
	l.Stats.Hits++
	l.thr.RecordHit(set)
	part := l.partOf(way)
	if part == SRAM {
		l.Stats.SRAMHits++
	} else {
		l.Stats.NVMHits++
	}
	l.verifyMaterialized(set, way)
	tag := e.tag
	tag.Reuse = ReuseWrite
	tag.LB = false
	if tag.Hits < 7 {
		tag.Hits++
	}
	res := AccessResult{Hit: true, Part: part, Dirty: e.dirty, Tag: tag}
	if l.noGetXInval {
		// Ablation: keep the (stale) copy; the private levels own the
		// dirty data and will overwrite it on eviction.
		e.tag = tag
		e.dirty = false
		l.touch(set, way)
		return res
	}
	l.Stats.InvalidatedOnGetX++
	l.clearMaterialized(set, way)
	l.clear(set, way)
	return res
}

// Insert handles a block evicted from L2 (clean or dirty). content provides
// the block's bytes for compression; it may be nil when the policy does not
// compress, in which case the block is treated as stored uncompressed.
// Non-inclusive flow (§III-A): if the block is already present and the
// incoming copy is clean, nothing happens; if dirty, the LLC copy is
// updated in place.
func (l *LLC) Insert(block uint64, dirty bool, tag BlockTag, content []byte) InsertOutcome {
	set, way, e := l.find(block)
	cb := bdi.BlockSize
	if l.pol.Compressed() && content != nil {
		cb = bdi.SizeOf(content)
		if l.hcrOnly && cb > bdi.HCRLimit {
			cb = bdi.BlockSize // original BDI: LCR encodings discarded
		}
	}
	if e != nil {
		if !dirty {
			return InsertOutcome{} // already present and up to date
		}
		l.updateInPlace(set, way, e, dirty, tag, cb, content)
		return InsertOutcome{Wrote: true, Part: l.partOf(way)}
	}
	l.Stats.Inserts++
	switch {
	case cb <= bdi.HCRLimit && l.pol.Compressed():
		l.Stats.InsertHCR++
	case cb < bdi.BlockSize && l.pol.Compressed():
		l.Stats.InsertLCR++
	default:
		l.Stats.InsertIncomp++
	}
	nvmBefore := l.Stats.NVMInserts
	l.insertFresh(set, block, dirty, tag, cb, content)
	if l.Stats.NVMInserts > nvmBefore {
		return InsertOutcome{Wrote: true, Part: NVM}
	}
	return InsertOutcome{Wrote: true, Part: SRAM}
}

// insertFresh runs the policy's steering decision and places a block that
// is not currently in the LLC.
func (l *LLC) insertFresh(set int, block uint64, dirty bool, tag BlockTag, cb int, content []byte) {
	pol := l.policyFor(set)
	info := InsertInfo{Set: set, Block: block, Dirty: dirty, CBSize: cb, Tag: tag}
	if pol.UsesThreshold() {
		info.CPth = l.thr.CPthFor(set)
	}
	if l.pol.Global() {
		l.insertGlobal(set, block, dirty, tag, cb, content)
		return
	}
	if pol.Target(info) == NVM && l.nvmWays > 0 {
		if l.insertNVM(set, block, dirty, tag, cb, content) {
			return
		}
		l.Stats.NVMFallbacks++ // no NVM frame fits: place in SRAM (§IV-B)
	}
	l.insertSRAM(set, block, dirty, tag, cb, content)
}

// updateInPlace rewrites an existing LLC copy with fresh dirty data. If the
// block now compresses to a size that no longer fits its NVM frame, it is
// reinserted through the normal policy path.
func (l *LLC) updateInPlace(set, way int, e *entry, dirty bool, tag BlockTag, cb int, content []byte) {
	if l.partOf(way) == NVM {
		f := l.frameOf(set, way)
		if !f.Fits(cb) {
			// The rewritten block no longer fits its aged frame: reinsert
			// through the normal policy path.
			block := e.block
			l.clear(set, way)
			l.clearMaterialized(set, way)
			l.Stats.Inserts++
			l.insertFresh(set, block, dirty, tag, cb, content)
			return
		}
		l.recordNVMWrite(set, f, cb)
	}
	l.rememberContent(set, way, content)
	l.Stats.InPlaceUpdates++
	e.dirty = true
	e.cb = uint8(cb)
	e.tag = tag
	l.touch(set, way)
}

func (l *LLC) recordNVMWrite(set int, f *nvm.Frame, cb int) {
	ecb := cb + nvm.MetaBytes
	if l.data == nil {
		f.RecordWrite(ecb) // in materialized mode the data path wears the frame
	}
	l.Stats.NVMBlockWrites++
	l.Stats.NVMBytesWritten += uint64(ecb)
	l.thr.RecordNVMBytes(set, ecb)
}

// insertNVM places the block into an NVM frame using the configured
// fit-constrained replacement: the victim is chosen among frames whose
// effective capacity fits the compressed block (§III-B1). Returns false
// when no frame fits.
func (l *LLC) insertNVM(set int, block uint64, dirty bool, tag BlockTag, cb int, content []byte) bool {
	victim := l.chooseNVMVictim(set, cb)
	if victim < 0 {
		return false
	}
	rrpv := uint8(2) // SRRIP "long" insertion, the FitRRIP default
	if ri := l.rripFor(set); ri != nil {
		rrpv = ri.InsertRRPV(InsertInfo{Set: set, Block: block, Dirty: dirty, CBSize: cb, Tag: tag, CPth: l.thr.CPthFor(set)})
	}
	l.evict(set, victim)
	l.fill(set, victim, entry{valid: true, dirty: dirty, block: block, cb: uint8(cb), tag: tag, rrpv: rrpv})
	l.Stats.NVMInserts++
	l.recordNVMWrite(set, l.frameOf(set, victim), cb)
	l.rememberContent(set, victim, content)
	return true
}

// nvmCaps returns the effective capacity of each of set's NVM frames,
// indexed by NVM way (way - SRAMWays): the array's published capacity
// row, current through every write, aging pass and remap.
func (l *LLC) nvmCaps(set int) []uint8 { return l.arr.CapRow(set) }

// chooseNVMVictim picks the NVM way to fill for a cb-sized block, or -1
// when no frame fits.
func (l *LLC) chooseNVMVictim(set, cb int) int {
	switch {
	case l.nvmRepl == FitRRIP || l.rripFor(set) != nil:
		return l.chooseNVMVictimRRIP(set, cb)
	default:
		caps := l.nvmCaps(set)
		last := l.last[l.slot(set, l.sramWays):l.slot(set, l.nways)]
		victim := -1
		victimTick := ^uint64(0)
		for w, t := range last {
			if cb > int(caps[w]) {
				continue
			}
			if t == 0 {
				return l.sramWays + w // invalid way
			}
			if t < victimTick {
				victim, victimTick = l.sramWays+w, t
			}
		}
		return victim
	}
}

// chooseNVMVictimRRIP implements SRRIP over the fitting frames: prefer an
// invalid way, then the first fitting entry with RRPV 3; if none, age
// every fitting entry and retry.
func (l *LLC) chooseNVMVictimRRIP(set, cb int) int {
	caps := l.nvmCaps(set)
	anyFit := false
	for w := l.sramWays; w < l.ways(); w++ {
		if cb <= int(caps[w-l.sramWays]) {
			anyFit = true
			if !l.entryAt(set, w).valid {
				return w
			}
		}
	}
	if !anyFit {
		return -1
	}
	for {
		for w := l.sramWays; w < l.ways(); w++ {
			if cb > int(caps[w-l.sramWays]) {
				continue
			}
			if l.entryAt(set, w).rrpv >= 3 {
				return w
			}
		}
		for w := l.sramWays; w < l.ways(); w++ {
			if cb <= int(caps[w-l.sramWays]) {
				if e := l.entryAt(set, w); e.valid && e.rrpv < 3 {
					e.rrpv++
				}
			}
		}
	}
}

// insertSRAM places the block into an SRAM way, applying the policy's
// migration behaviour when a victim must be chosen.
func (l *LLC) insertSRAM(set int, block uint64, dirty bool, tag BlockTag, cb int, content []byte) {
	if l.sramWays == 0 {
		// Degenerate configuration (NVM-only): retry NVM ignoring the
		// policy target; if nothing fits the block bypasses the LLC.
		l.insertNVM(set, block, dirty, tag, cb, content)
		return
	}
	way := -1
	for w, t := range l.last[l.slot(set, 0):l.slot(set, l.sramWays)] {
		if t == 0 { // invalid way
			way = w
			break
		}
	}
	if way < 0 {
		pol := l.policyFor(set)
		way = l.chooseSRAMVictim(set)
		v := l.entryAt(set, way)
		migrated := false
		switch {
		case pol.LHybridMigrate() && v.tag.LB:
			migrated = l.migrate(set, way)
		case pol.MigrateReadReuse() && v.tag.Reuse == ReuseRead:
			migrated = l.migrate(set, way)
		}
		if !migrated {
			l.evict(set, way)
		}
	}
	l.fill(set, way, entry{valid: true, dirty: dirty, block: block, cb: uint8(cb), tag: tag})
	l.Stats.SRAMInserts++
	l.rememberContent(set, way, content)
}

// chooseSRAMVictim picks the SRAM way to vacate. For LHybrid the most
// recent loop-block is preferred (it is migrated, not evicted); otherwise
// the LRU way is chosen.
func (l *LLC) chooseSRAMVictim(set int) int {
	if l.policyFor(set).LHybridMigrate() {
		best, bestTick := -1, uint64(0)
		for w := 0; w < l.sramWays; w++ {
			e := l.entryAt(set, w)
			if t := l.last[l.slot(set, w)]; e.valid && e.tag.LB && t >= bestTick {
				best, bestTick = w, t
			}
		}
		if best >= 0 {
			return best
		}
	}
	lru, lruTick := 0, ^uint64(0)
	for w, t := range l.last[l.slot(set, 0):l.slot(set, l.sramWays)] {
		if t < lruTick {
			lru, lruTick = w, t
		}
	}
	return lru
}

// migrate moves the entry at (set, way) from SRAM into the NVM part,
// freeing the way. Returns false (entry evicted normally) when the block
// fits no NVM frame.
func (l *LLC) migrate(set, way int) bool {
	e := l.entryAt(set, way)
	cb := int(e.cb)
	if !l.pol.Compressed() {
		cb = bdi.BlockSize
	}
	content := l.contentAt(set, way)
	if l.nvmWays == 0 || !l.insertNVM(set, e.block, e.dirty, e.tag, cb, content) {
		return false
	}
	l.Stats.Migrations++
	l.clearMaterialized(set, way)
	l.clear(set, way)
	return true
}

// evict clears (set, way), writing dirty data back to memory.
func (l *LLC) evict(set, way int) {
	e := l.entryAt(set, way)
	if e.valid && e.dirty {
		l.Stats.Writebacks++
	}
	l.clearMaterialized(set, way)
	l.clear(set, way)
}

// insertGlobal implements the NVM-unaware BH/BH_CP replacement: one
// (Fit-)LRU list across both parts. The victim is the LRU entry among the
// frames the incoming block fits in; SRAM frames always fit.
func (l *LLC) insertGlobal(set int, block uint64, dirty bool, tag BlockTag, cb int, content []byte) {
	var caps []uint8
	if l.nvmWays > 0 {
		caps = l.nvmCaps(set)
	}
	victim := -1
	victimTick := ^uint64(0)
	for w, t := range l.last[l.slot(set, 0):l.slot(set, l.nways)] {
		if w >= l.sramWays && cb > int(caps[w-l.sramWays]) {
			continue
		}
		if t == 0 { // invalid way
			victim = w
			break
		}
		if t < victimTick {
			victim, victimTick = w, t
		}
	}
	if victim < 0 {
		return // nothing fits anywhere: bypass
	}
	l.evict(set, victim)
	l.fill(set, victim, entry{valid: true, dirty: dirty, block: block, cb: uint8(cb), tag: tag})
	if l.partOf(victim) == NVM {
		l.Stats.NVMInserts++
		l.recordNVMWrite(set, l.frameOf(set, victim), cb)
	} else {
		l.Stats.SRAMInserts++
	}
	l.rememberContent(set, victim, content)
}

// InvalidateUnfit drops NVM-resident entries whose frame can no longer
// hold them (the frame died or shrank below the stored compressed size).
// The forecast procedure calls this after aging the array between phases;
// dirty casualties are counted as writebacks (scrubbed to memory before
// the frame is disabled). It returns the number of entries dropped.
func (l *LLC) InvalidateUnfit() int {
	if l.arr == nil {
		return 0
	}
	dropped := 0
	for set := 0; set < l.sets; set++ {
		caps := l.nvmCaps(set)
		for w := l.sramWays; w < l.ways(); w++ {
			e := l.entryAt(set, w)
			if !e.valid {
				continue
			}
			if int(e.cb) > int(caps[w-l.sramWays]) {
				if e.dirty {
					l.Stats.Writebacks++
				}
				l.clearMaterialized(set, w)
				l.clear(set, w)
				dropped++
			}
		}
	}
	return dropped
}

// RotateNVMSets advances the NVM array's inter-set wear-leveling rotation
// by n rows and flushes all NVM-resident entries, whose physical frames
// have changed (the hardware scheme migrates the lines; we model the
// migration as a refill, writing dirty casualties back to memory). It
// returns the number of entries flushed. No simulator path calls it:
// set-level wear leveling runs through the SetMapper (internal/coloring),
// and the method stays for the frozen benchmark (perfbench/), which
// compiles against it.
func (l *LLC) RotateNVMSets(n int) int {
	if l.arr == nil || n == 0 {
		return 0
	}
	l.arr.AdvanceSetRemap(n)
	flushed := 0
	for set := 0; set < l.sets; set++ {
		for w := l.sramWays; w < l.ways(); w++ {
			e := l.entryAt(set, w)
			if !e.valid {
				continue
			}
			if e.dirty {
				l.Stats.Writebacks++
			}
			l.clearMaterialized(set, w)
			l.clear(set, w)
			flushed++
		}
	}
	return flushed
}

// EndEpoch forwards the epoch boundary to the threshold provider and,
// when the LLC owns its coloring mapper (SetMapperAdvance), advances
// it — flushing exactly the physical rows whose mapping changed, since
// only those rows' resident blocks moved under them.
func (l *LLC) EndEpoch() {
	l.thr.EndEpoch()
	if l.mapper != nil && l.mapperAdvance {
		old := l.snapshotMapping(nil)
		if l.mapper.Epoch(l.RowWear()) {
			l.FlushRows(changedRows(old, l.mapper))
		}
	}
}

// snapshotMapping records the mapper's current logical→physical row
// mapping into dst (grown as needed). Callers snapshot before advancing
// the mapper and diff with changedRows to flush only the stale rows.
func (l *LLC) snapshotMapping(dst []int) []int {
	if cap(dst) < l.sets {
		dst = make([]int, l.sets)
	}
	dst = dst[:l.sets]
	for s := 0; s < l.sets; s++ {
		dst[s] = l.mapper.Map(s)
	}
	return dst
}

// changedRows diffs a pre-advance mapping snapshot against the mapper's
// current mapping and returns every physical row that hosts different
// logical sets than before — the old and new images of each remapped
// logical set (deduplicated, ascending). Those rows hold stale blocks;
// all other rows still satisfy SetOf(block) == row and keep their
// contents across the remap.
func changedRows(old []int, m SetMapper) []int {
	stale := make([]bool, len(old))
	for s, prev := range old {
		now := m.Map(s)
		if now != prev {
			stale[prev] = true
			stale[now] = true
		}
	}
	var rows []int
	for r, s := range stale {
		if s {
			rows = append(rows, r)
		}
	}
	return rows
}

// RowWear returns the cumulative per-physical-row wear (each row's
// frame wear summed across its NVM ways), nil for SRAM-only
// configurations. The returned slice is owned by the LLC and reused.
func (l *LLC) RowWear() []float64 {
	if l.arr == nil {
		return nil
	}
	if l.rowWear == nil {
		l.rowWear = make([]float64, l.sets)
	}
	return nvm.RowWearInto(l.rowWear, l.arr.Frames(), l.sets, l.arr.Ways())
}

// FlushRows invalidates the directory entries of the listed physical
// rows, writing dirty casualties back to memory — the refill model of a
// hardware set-remap event (the coloring migration moves whole rows, so
// unlike RotateNVMSets the SRAM ways move too). Only the remapped rows
// are flushed, so a pairs-bounded wear-feedback swap pays for the rows
// it moved instead of the whole cache. Returns the number of entries
// flushed.
func (l *LLC) FlushRows(rows []int) int {
	flushed := 0
	for _, set := range rows {
		flushed += l.flushRow(set)
	}
	return flushed
}

func (l *LLC) flushRow(set int) int {
	flushed := 0
	for w := 0; w < l.ways(); w++ {
		e := l.entryAt(set, w)
		if !e.valid {
			continue
		}
		if e.dirty {
			l.Stats.Writebacks++
		}
		l.clearMaterialized(set, w)
		l.clear(set, w)
		flushed++
	}
	return flushed
}

// ResetStats clears the statistics block.
func (l *LLC) ResetStats() { l.Stats = Stats{} }

// EffectiveCapacityFraction returns the NVM part's remaining capacity
// fraction (1.0 for SRAM-only configurations).
func (l *LLC) EffectiveCapacityFraction() float64 {
	if l.arr == nil {
		return 1
	}
	return l.arr.EffectiveCapacityFraction()
}

// Occupancy returns the number of valid entries in a set, for tests.
func (l *LLC) Occupancy(set int) int {
	n := 0
	for w := 0; w < l.ways(); w++ {
		if l.entryAt(set, w).valid {
			n++
		}
	}
	return n
}

// Contains reports whether a block is present, for tests.
func (l *LLC) Contains(block uint64) bool {
	_, _, e := l.find(block)
	return e != nil
}

// CheckInvariants verifies the LLC's structural invariants: no duplicate
// blocks, correct set mapping, statistics consistency, no block resident
// in a dead frame, and the dense mirrors — each valid way's blocks entry
// equals its entry's block, its timestamp is zero exactly when the way is
// invalid, and every NVM frame's published capacity equals its
// EffectiveCapacity. It is exported for integration tests and returns the
// first violation found.
func (l *LLC) CheckInvariants() error {
	if l.arr != nil {
		if err := l.arr.CheckCapRows(); err != nil {
			return fmt.Errorf("hybrid: %w", err)
		}
	}
	for set := 0; set < l.sets; set++ {
		seen := make(map[uint64]int, l.ways())
		for w := 0; w < l.ways(); w++ {
			e := l.entryAt(set, w)
			i := l.slot(set, w)
			if e.valid != (l.last[i] != 0) {
				return fmt.Errorf("hybrid: set %d way %d valid=%v with timestamp %d", set, w, e.valid, l.last[i])
			}
			if !e.valid {
				continue
			}
			if l.blocks[i] != e.block {
				return fmt.Errorf("hybrid: set %d way %d mirrors block %#x, holds %#x", set, w, l.blocks[i], e.block)
			}
			if prev, dup := seen[e.block]; dup {
				return fmt.Errorf("hybrid: block %#x in set %d ways %d and %d", e.block, set, prev, w)
			}
			seen[e.block] = w
			if l.SetOf(e.block) != set {
				return fmt.Errorf("hybrid: block %#x stored in wrong set %d", e.block, set)
			}
			if e.cb == 0 || int(e.cb) > bdi.BlockSize {
				return fmt.Errorf("hybrid: block %#x has invalid compressed size %d", e.block, e.cb)
			}
			if l.partOf(w) == NVM && l.frameOf(set, w).Dead() {
				return fmt.Errorf("hybrid: block %#x resident in dead frame (set %d way %d)", e.block, set, w)
			}
		}
	}
	s := &l.Stats
	if s.Hits+s.Misses != s.GetS+s.GetX {
		return fmt.Errorf("hybrid: hits+misses (%d) != requests (%d)", s.Hits+s.Misses, s.GetS+s.GetX)
	}
	if s.SRAMHits+s.NVMHits != s.Hits {
		return fmt.Errorf("hybrid: partition hits (%d) != hits (%d)", s.SRAMHits+s.NVMHits, s.Hits)
	}
	return nil
}

// Tick returns the LLC's LRU clock: the timestamp handed to the most
// recently touched entry. Valid entries always carry Last values in
// (0, Tick].
func (l *LLC) Tick() uint64 { return l.tick }

// EntryView is a read-only projection of one directory entry, exposed for
// the external invariant suites (package check) without opening up the
// mutable entry array.
type EntryView struct {
	Valid bool
	Dirty bool
	Block uint64
	CB    int    // stored compressed size in data bytes
	Last  uint64 // LRU timestamp (value of Tick when last touched)
	Part  Partition
}

// ViewEntry returns a read-only view of the directory entry at (set, way).
// Ways [0, SRAMWays) are SRAM; [SRAMWays, SRAMWays+NVMWays) map to NVM
// frames reachable through Array().Frame(set, way-SRAMWays).
func (l *LLC) ViewEntry(set, way int) EntryView {
	e := l.entryAt(set, way)
	return EntryView{
		Valid: e.valid,
		Dirty: e.dirty,
		Block: e.block,
		CB:    int(e.cb),
		Last:  l.last[l.slot(set, way)],
		Part:  l.partOf(way),
	}
}

// PartitionOf returns the partition currently holding block.
func (l *LLC) PartitionOf(block uint64) (Partition, bool) {
	_, way, e := l.find(block)
	if e == nil {
		return 0, false
	}
	return l.partOf(way), true
}
