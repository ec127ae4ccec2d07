package hybrid

import (
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nvm"
	"repro/internal/stats"
)

// Test policies: minimal local implementations so the hybrid package does
// not depend on internal/policy (which imports hybrid).

type basePolicy struct {
	name   string
	traits Traits
	target func(InsertInfo) Partition
}

func (p basePolicy) Name() string   { return p.name }
func (p basePolicy) Traits() Traits { return p.traits }
func (p basePolicy) Target(i InsertInfo) Partition {
	if p.target == nil {
		return SRAM
	}
	return p.target(i)
}

func caRWRTarget(i InsertInfo) Partition {
	switch i.Tag.Reuse {
	case ReuseRead:
		return NVM
	case ReuseWrite:
		return SRAM
	}
	if i.Small() {
		return NVM
	}
	return SRAM
}

var (
	testBH = basePolicy{name: "BH", traits: Traits{Global: true}}
	testCP = basePolicy{name: "CARWR", traits: Traits{Compressed: true, Migrate: MigrateReadReuse},
		target: caRWRTarget}
)

var testEndurance = nvm.EnduranceModel{Mean: 1e9, CV: 0.2}

func newLLC(t testing.TB, pol Policy, thr ThresholdProvider, sets, sram, nw int) *LLC {
	t.Helper()
	return New(Config{
		Sets: sets, SRAMWays: sram, NVMWays: nw,
		Policy: pol, Thresholds: thr,
		Endurance: testEndurance, Sampler: stats.NewRNG(99),
	})
}

// compressibleBlock returns content that BDI compresses to 16 bytes (B8D1).
func compressibleBlock() []byte {
	b := make([]byte, 64)
	for i := 0; i < 8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], 1<<40+uint64(i))
	}
	return b
}

// incompressibleBlock returns content BDI cannot compress.
func incompressibleBlock() []byte {
	b := make([]byte, 64)
	s := stats.NewRNG(1234)
	for i := range b {
		b[i] = byte(s.Uint32())
	}
	return b
}

func TestTagPackUnpack(t *testing.T) {
	for _, tag := range []BlockTag{
		{}, {Reuse: ReuseRead}, {Reuse: ReuseWrite, LB: true, Hits: 3},
		{Hits: 7}, {Reuse: ReuseWrite, Hits: 9}, // saturates
	} {
		got := UnpackTag(tag.Pack())
		want := tag
		if want.Hits > 7 {
			want.Hits = 7
		}
		if got != want {
			t.Errorf("roundtrip %+v -> %+v", tag, got)
		}
	}
}

func TestTagPackProperty(t *testing.T) {
	f := func(v uint8) bool {
		// unpack∘pack∘unpack = unpack (pack is a left inverse on the
		// 7-bit-used domain..
		tag := UnpackTag(v & 0x7F)
		return UnpackTag(tag.Pack()) == tag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMissThenInsertThenHit(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 16, 4, 12)
	if r := l.GetS(5); r.Hit {
		t.Fatal("empty LLC should miss")
	}
	l.Insert(5, false, BlockTag{}, compressibleBlock())
	r := l.GetS(5)
	if !r.Hit {
		t.Fatal("inserted block should hit")
	}
	if r.Part != NVM {
		t.Fatalf("small clean no-reuse block should be in NVM, got %v", r.Part)
	}
	if r.Tag.Reuse != ReuseRead || !r.Tag.LB || r.Tag.Hits != 1 {
		t.Fatalf("clean hit should set read-reuse + LB + hits=1, got %+v", r.Tag)
	}
	if l.Stats.Hits != 1 || l.Stats.Misses != 1 {
		t.Fatalf("stats %d/%d", l.Stats.Hits, l.Stats.Misses)
	}
}

func TestBigBlockGoesToSRAM(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 16, 4, 12)
	l.Insert(7, false, BlockTag{}, incompressibleBlock())
	p, ok := l.PartitionOf(7)
	if !ok || p != SRAM {
		t.Fatalf("incompressible block in %v", p)
	}
	if l.Stats.InsertIncomp != 1 {
		t.Fatal("incompressible class not counted")
	}
}

func TestWriteReuseGoesToSRAM(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 16, 4, 12)
	l.Insert(3, true, BlockTag{Reuse: ReuseWrite}, compressibleBlock())
	if p, _ := l.PartitionOf(3); p != SRAM {
		t.Fatalf("write-reuse block in %v, want SRAM (Table II)", p)
	}
}

func TestReadReuseBigBlockGoesToNVM(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 16, 4, 12)
	l.Insert(3, false, BlockTag{Reuse: ReuseRead}, incompressibleBlock())
	if p, _ := l.PartitionOf(3); p != NVM {
		t.Fatalf("read-reuse block in %v, want NVM regardless of size (Table II)", p)
	}
}

func TestGetXInvalidates(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 16, 4, 12)
	l.Insert(9, true, BlockTag{}, compressibleBlock())
	r := l.GetX(9)
	if !r.Hit || !r.Dirty {
		t.Fatalf("GetX hit should transfer dirty data: %+v", r)
	}
	if r.Tag.Reuse != ReuseWrite || r.Tag.LB {
		t.Fatalf("GetX should tag write-reuse and clear LB: %+v", r.Tag)
	}
	if l.Contains(9) {
		t.Fatal("GetX hit must invalidate the LLC copy (§III-A)")
	}
	if l.Stats.InvalidatedOnGetX != 1 {
		t.Fatal("invalidate counter not bumped")
	}
}

func TestDirtyHitClassifiesWriteReuse(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 16, 4, 12)
	l.Insert(9, true, BlockTag{}, compressibleBlock())
	r := l.GetS(9)
	if r.Tag.Reuse != ReuseWrite {
		t.Fatalf("GetS hit on dirty block should classify write-reuse, got %v", r.Tag.Reuse)
	}
	if r.Tag.LB {
		t.Fatal("dirty block must not become a loop-block")
	}
}

func TestCleanReinsertIsNoop(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 16, 4, 12)
	l.Insert(4, false, BlockTag{}, compressibleBlock())
	w0 := l.Stats.NVMBytesWritten
	l.Insert(4, false, BlockTag{}, compressibleBlock())
	if l.Stats.NVMBytesWritten != w0 {
		t.Fatal("reinserting a clean present block must not rewrite NVM")
	}
	if l.Stats.Inserts != 1 {
		t.Fatalf("inserts = %d, want 1", l.Stats.Inserts)
	}
}

func TestDirtyUpdateInPlace(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 16, 4, 12)
	l.Insert(4, false, BlockTag{}, compressibleBlock())
	w0 := l.Stats.NVMBytesWritten
	l.Insert(4, true, BlockTag{Reuse: ReuseWrite}, compressibleBlock())
	if l.Stats.InPlaceUpdates != 1 {
		t.Fatal("dirty reinsert should update in place")
	}
	if l.Stats.NVMBytesWritten <= w0 {
		t.Fatal("in-place NVM update must count written bytes")
	}
}

func TestNVMBytesAccounting(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(64), 16, 4, 12)
	l.Insert(1, false, BlockTag{}, compressibleBlock()) // B8D1: 16 bytes
	want := uint64(16 + nvm.MetaBytes)
	if l.Stats.NVMBytesWritten != want {
		t.Fatalf("NVM bytes = %d, want %d (CB+meta)", l.Stats.NVMBytesWritten, want)
	}
}

func TestFitLRUSkipsSmallFrames(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(64), 1, 1, 2)
	// Age way 1 (NVM index 1) so it only fits tiny blocks.
	f := l.Array().Frame(0, 1)
	for f.EffectiveCapacity() > 8 {
		f.AdvanceTo(f.NextLimit())
	}
	if f.Dead() {
		t.Skip("frame died entirely under sampled endurance; geometry-specific")
	}
	// A 16-byte block fits only frame 0; insert twice - second insert must
	// evict the first (both target frame 0), leaving frame 1 empty.
	l.Insert(100, false, BlockTag{}, compressibleBlock())
	l.Insert(101, false, BlockTag{}, compressibleBlock())
	if l.Contains(100) {
		t.Fatal("fit-LRU should have evicted block 100 from the only fitting frame")
	}
	if !l.Contains(101) {
		t.Fatal("block 101 missing")
	}
}

func TestNVMFallbackToSRAM(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(64), 1, 1, 2)
	for w := 0; w < 2; w++ {
		f := l.Array().Frame(0, w)
		f.AddWear(math.MaxFloat64 / 2)
	}
	l.Insert(50, false, BlockTag{}, compressibleBlock())
	if p, ok := l.PartitionOf(50); !ok || p != SRAM {
		t.Fatalf("block should fall back to SRAM, got %v ok=%v", p, ok)
	}
	if l.Stats.NVMFallbacks != 1 {
		t.Fatal("fallback counter not bumped")
	}
}

func TestReadReuseMigrationOnSRAMEvict(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 1, 1, 2)
	// Fill the single SRAM way with a read-reused big block.
	l.Insert(10, false, BlockTag{Reuse: ReuseNone}, incompressibleBlock())
	if p, _ := l.PartitionOf(10); p != SRAM {
		t.Fatal("setup: block 10 should be in SRAM")
	}
	// Mark it read-reused via a GetS hit.
	l.GetS(10)
	// Insert another big block: SRAM victim (10) has read reuse -> migrate.
	l.Insert(11, false, BlockTag{}, incompressibleBlock())
	if p, ok := l.PartitionOf(10); !ok || p != NVM {
		t.Fatalf("block 10 should have migrated to NVM, got %v ok=%v", p, ok)
	}
	if p, _ := l.PartitionOf(11); p != SRAM {
		t.Fatal("block 11 should occupy the freed SRAM way")
	}
	if l.Stats.Migrations != 1 {
		t.Fatalf("migrations = %d", l.Stats.Migrations)
	}
}

func TestGlobalLRUBH(t *testing.T) {
	l := newLLC(t, testBH, nil, 1, 1, 2)
	l.Insert(1, false, BlockTag{}, nil)
	l.Insert(2, false, BlockTag{}, nil)
	l.Insert(3, false, BlockTag{}, nil)
	if l.Occupancy(0) != 3 {
		t.Fatalf("occupancy = %d, want 3 (global fill)", l.Occupancy(0))
	}
	l.GetS(1)
	l.GetS(2) // 3 is now LRU
	l.Insert(4, false, BlockTag{}, nil)
	if l.Contains(3) {
		t.Fatal("global LRU should evict block 3")
	}
}

func TestBHWritesFullBlocksToNVM(t *testing.T) {
	l := newLLC(t, testBH, nil, 1, 0, 1)
	l.Insert(1, false, BlockTag{}, nil)
	if l.Stats.NVMBytesWritten != nvm.FrameBytes {
		t.Fatalf("BH NVM write = %d bytes, want %d", l.Stats.NVMBytesWritten, nvm.FrameBytes)
	}
}

func TestGlobalSkipsDeadFrames(t *testing.T) {
	l := newLLC(t, testBH, nil, 1, 1, 2)
	for w := 0; w < 2; w++ {
		l.Array().Frame(0, w).AddWear(math.MaxFloat64 / 2)
	}
	l.Insert(1, false, BlockTag{}, nil)
	l.Insert(2, false, BlockTag{}, nil)
	if l.Occupancy(0) != 1 {
		t.Fatalf("only the SRAM way should be usable, occupancy = %d", l.Occupancy(0))
	}
	if p, _ := l.PartitionOf(2); p != SRAM {
		t.Fatal("surviving block should be in SRAM")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	l := newLLC(t, testBH, nil, 1, 1, 0) // single SRAM way
	l.Insert(1, true, BlockTag{}, nil)
	l.Insert(2, false, BlockTag{}, nil)
	if l.Stats.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", l.Stats.Writebacks)
	}
}

func TestLHybridMigrationPrefersMostRecentLB(t *testing.T) {
	lh := basePolicy{name: "LHybrid", traits: Traits{Migrate: MigrateLoopBlock},
		target: func(i InsertInfo) Partition {
			if i.Tag.LB {
				return NVM
			}
			return SRAM
		}}
	l := newLLC(t, lh, nil, 1, 2, 2)
	// Two NLB blocks fill SRAM.
	l.Insert(1, false, BlockTag{}, nil)
	l.Insert(2, false, BlockTag{}, nil)
	// Promote both to LB via clean hits; block 2 is more recent.
	l.GetS(1)
	l.GetS(2)
	// New NLB insert must migrate most-recent LB (2) to NVM.
	l.Insert(3, false, BlockTag{}, nil)
	if p, ok := l.PartitionOf(2); !ok || p != NVM {
		t.Fatalf("most-recent LB should migrate to NVM, got %v ok=%v", p, ok)
	}
	if p, _ := l.PartitionOf(1); p != SRAM {
		t.Fatal("older LB should stay in SRAM")
	}
	if p, _ := l.PartitionOf(3); p != SRAM {
		t.Fatal("incoming NLB should take the freed SRAM way")
	}
}

func TestThresholdSmallBoundary(t *testing.T) {
	// CPth = 16 admits exactly the 16-byte block.
	l := newLLC(t, testCP, FixedThreshold(16), 4, 2, 2)
	l.Insert(1, false, BlockTag{}, compressibleBlock())
	if p, _ := l.PartitionOf(1); p != NVM {
		t.Fatal("block with CB size == CPth should be small (<=)")
	}
	l2 := newLLC(t, testCP, FixedThreshold(15), 4, 2, 2)
	l2.Insert(1, false, BlockTag{}, compressibleBlock())
	if p, _ := l2.PartitionOf(1); p != SRAM {
		t.Fatal("block with CB size > CPth should be big")
	}
}

func TestSRAMOnlyConfig(t *testing.T) {
	l := newLLC(t, testBH, nil, 4, 4, 0)
	if l.Array() != nil {
		t.Fatal("SRAM-only LLC should have no NVM array")
	}
	if l.EffectiveCapacityFraction() != 1 {
		t.Fatal("SRAM-only capacity should be 1")
	}
	for b := uint64(0); b < 32; b++ {
		l.Insert(b, false, BlockTag{}, nil)
	}
	total := 0
	for s := 0; s < 4; s++ {
		total += l.Occupancy(s)
	}
	if total != 16 {
		t.Fatalf("occupancy %d, want 16", total)
	}
}

func TestResetStats(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 4, 2, 2)
	l.Insert(1, false, BlockTag{}, compressibleBlock())
	l.GetS(1)
	l.ResetStats()
	if l.Stats.Hits != 0 || l.Stats.Inserts != 0 {
		t.Fatal("stats not cleared")
	}
	if !l.Contains(1) {
		t.Fatal("contents must survive stats reset")
	}
}

func TestPanicsOnBadConfig(t *testing.T) {
	for _, bad := range []Config{
		{Sets: 0, SRAMWays: 1, Policy: testBH},
		{Sets: 4, SRAMWays: 0, NVMWays: 0, Policy: testBH},
		{Sets: 4, SRAMWays: 1, NVMWays: 1},
	} {
		func() {
			defer func() { recover() }()
			New(bad)
			t.Errorf("config %+v did not panic", bad)
		}()
	}
}

func TestPartitionString(t *testing.T) {
	if SRAM.String() != "SRAM" || NVM.String() != "NVM" {
		t.Error("partition names")
	}
	if Partition(7).String() == "" {
		t.Error("unknown partition should render")
	}
	if ReuseRead.String() != "read" || ReuseWrite.String() != "write" || ReuseNone.String() != "none" {
		t.Error("reuse names")
	}
	if ReuseClass(9).String() == "" {
		t.Error("unknown reuse should render")
	}
}

// Invariant property: after arbitrary operation sequences, no block appears
// twice, occupancy <= ways, and every NVM-resident compressed size fits the
// pristine frame capacity.
func TestLLCInvariants(t *testing.T) {
	f := func(ops []uint32) bool {
		l := newLLC(t, testCP, FixedThreshold(40), 4, 2, 4)
		content := [][]byte{compressibleBlock(), incompressibleBlock()}
		for _, op := range ops {
			block := uint64(op % 64)
			switch (op >> 8) % 4 {
			case 0:
				l.GetS(block)
			case 1:
				l.GetX(block)
			case 2:
				l.Insert(block, false, BlockTag{}, content[op%2])
			case 3:
				l.Insert(block, op&4 != 0, UnpackTag(uint8(op>>16)&0x3F), content[op%2])
			}
		}
		for set := 0; set < 4; set++ {
			if l.Occupancy(set) > 6 {
				return false
			}
			seen := map[uint64]bool{}
			for w := 0; w < 6; w++ {
				e := l.entryAt(set, w)
				if !e.valid {
					continue
				}
				if seen[e.block] || l.SetOf(e.block) != set {
					return false
				}
				seen[e.block] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLLCInsertCompressed(b *testing.B) {
	l := newLLC(b, testCP, FixedThreshold(37), 1024, 4, 12)
	content := compressibleBlock()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.Insert(uint64(i), false, BlockTag{}, content)
	}
}

func BenchmarkLLCGetSHit(b *testing.B) {
	l := newLLC(b, testCP, FixedThreshold(37), 1024, 4, 12)
	content := compressibleBlock()
	for i := uint64(0); i < 1024; i++ {
		l.Insert(i, false, BlockTag{}, content)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.GetS(uint64(i) % 1024)
	}
}

func TestAccessorsAndFixedThreshold(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 8, 4, 12)
	if l.Sets() != 8 || l.SRAMWays() != 4 || l.NVMWays() != 12 {
		t.Error("geometry accessors wrong")
	}
	if l.Policy().Name() != "CARWR" {
		t.Error("policy accessor wrong")
	}
	if !l.CompressionEnabled() {
		t.Error("CARWR should compress")
	}
	thr := l.Thresholds()
	if thr.CPthFor(3) != 37 {
		t.Error("threshold accessor wrong")
	}
	// FixedThreshold counters are no-ops.
	thr.RecordHit(0)
	thr.RecordNVMBytes(0, 10)
	thr.EndEpoch()
	l.EndEpoch()
	st := &Stats{Hits: 3, Misses: 1}
	if st.HitRate() != 0.75 {
		t.Error("stats hit rate wrong")
	}
	if (&Stats{}).HitRate() != 0 {
		t.Error("empty stats hit rate should be 0")
	}
}

func TestInvalidateUnfitDropsShrunkEntries(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(64), 1, 1, 2)
	l.Insert(1, true, BlockTag{}, incompressibleBlock()) // 64B, NVM (small<=64)
	if p, _ := l.PartitionOf(1); p != NVM {
		t.Skip("block not in NVM under sampled endurance")
	}
	// Shrink the frame below 64B capacity.
	set := l.SetOf(1)
	for w := 0; w < 2; w++ {
		f := l.Array().Frame(set, w)
		for f.EffectiveCapacity() > 32 && !f.Dead() {
			f.AdvanceTo(f.NextLimit())
		}
	}
	wb := l.Stats.Writebacks
	dropped := l.InvalidateUnfit()
	if dropped == 0 {
		t.Fatal("shrunk frame entry not dropped")
	}
	if l.Stats.Writebacks != wb+1 {
		t.Error("dirty dropped entry must write back")
	}
	if l.Contains(1) {
		t.Error("entry still present")
	}
	// Idempotent.
	if l.InvalidateUnfit() != 0 {
		t.Error("second pass dropped more")
	}
}

func TestInvalidateUnfitSRAMOnly(t *testing.T) {
	l := newLLC(t, testBH, nil, 4, 4, 0)
	if l.InvalidateUnfit() != 0 {
		t.Error("SRAM-only InvalidateUnfit should be 0")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestInsertOutcome(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(58), 8, 2, 4)
	out := l.Insert(1, false, BlockTag{}, compressibleBlock())
	if !out.Wrote || out.Part != NVM {
		t.Fatalf("small-block insert outcome %+v", out)
	}
	out = l.Insert(2, false, BlockTag{}, incompressibleBlock())
	if !out.Wrote || out.Part != SRAM {
		t.Fatalf("big-block insert outcome %+v", out)
	}
	// Clean reinsert of a present block: no write.
	out = l.Insert(1, false, BlockTag{}, compressibleBlock())
	if out.Wrote {
		t.Fatalf("clean reinsert outcome %+v", out)
	}
	// Dirty update in place: write in the holding partition.
	out = l.Insert(1, true, BlockTag{}, compressibleBlock())
	if !out.Wrote || out.Part != NVM {
		t.Fatalf("dirty update outcome %+v", out)
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	l := newLLC(t, testCP, FixedThreshold(37), 4, 2, 2)
	l.Insert(1, false, BlockTag{}, compressibleBlock())
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Corrupt: duplicate the block into another way of the same set.
	set := l.SetOf(1)
	for w := 0; w < 4; w++ {
		e := l.entryAt(set, w)
		if !e.valid {
			*e = entry{valid: true, block: 1, cb: 16}
			break
		}
	}
	if err := l.CheckInvariants(); err == nil {
		t.Fatal("duplicate block not detected")
	}
}
