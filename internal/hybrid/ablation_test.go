package hybrid

import (
	"testing"

	"repro/internal/bdi"
	"repro/internal/nvm"
	"repro/internal/stats"
)

// lcrBlock returns content compressing into the LCR range (B8D4, 40B).
func lcrBlock() []byte {
	b := make([]byte, 64)
	base := uint64(1) << 50
	for i := 0; i < 8; i++ {
		v := base + uint64(i)<<27
		for j := 0; j < 8; j++ {
			b[i*8+j] = byte(v >> (8 * uint(j)))
		}
	}
	return b
}

func newAblLLC(t *testing.T, mod func(*Config)) *LLC {
	t.Helper()
	cfg := Config{
		Sets: 8, SRAMWays: 2, NVMWays: 4,
		Policy:     testCP,
		Thresholds: FixedThreshold(58),
		Endurance:  testEndurance,
		Sampler:    stats.NewRNG(31),
	}
	if mod != nil {
		mod(&cfg)
	}
	return New(cfg)
}

func TestHCROnlyAblation(t *testing.T) {
	content := lcrBlock()
	if got := bdi.SizeOf(content); got != 40 {
		t.Fatalf("setup: block compresses to %d, want 40", got)
	}
	full := newAblLLC(t, nil)
	full.Insert(1, false, BlockTag{}, content)
	if full.Stats.NVMBytesWritten != 40+nvm.MetaBytes {
		t.Fatalf("full design wrote %d bytes, want %d", full.Stats.NVMBytesWritten, 40+nvm.MetaBytes)
	}
	abl := newAblLLC(t, func(c *Config) { c.HCROnly = true })
	abl.Insert(1, false, BlockTag{}, content)
	// With LCR discarded the block is "big" under CPth 58 -> SRAM, and if
	// it reaches NVM it would cost the full 66 bytes.
	if p, _ := abl.PartitionOf(1); p != SRAM {
		t.Fatalf("HCR-only ablation placed LCR block in %v", p)
	}
	if abl.Stats.NVMBytesWritten != 0 {
		t.Fatal("HCR-only ablation should not have written NVM")
	}
	// HCR blocks are unaffected by the ablation.
	abl.Insert(2, false, BlockTag{}, compressibleBlock())
	if p, _ := abl.PartitionOf(2); p != NVM {
		t.Fatal("HCR block should still go to NVM under the ablation")
	}
}

func TestNoGetXInvalidateAblation(t *testing.T) {
	l := newAblLLC(t, func(c *Config) { c.NoGetXInvalidate = true })
	l.Insert(5, true, BlockTag{}, compressibleBlock())
	r := l.GetX(5)
	if !r.Hit || !r.Dirty {
		t.Fatalf("GetX result %+v", r)
	}
	if !l.Contains(5) {
		t.Fatal("ablation should keep the LLC copy on GetX")
	}
	if l.Stats.InvalidatedOnGetX != 0 {
		t.Fatal("invalidate counter must stay zero under the ablation")
	}
	// The retained copy is clean (ownership moved to L2): evicting it
	// must not write back.
	p, _ := l.PartitionOf(5)
	_ = p
	set := l.SetOf(5)
	for w := 0; w < l.ways(); w++ {
		e := l.entryAt(set, w)
		if e.valid && e.block == 5 && e.dirty {
			t.Fatal("retained copy should be marked clean")
		}
	}
}

func TestNoMigrationLeavesVictimsEvicted(t *testing.T) {
	noMig := basePolicy{name: "CARWR-nomig", traits: Traits{Compressed: true}, target: caRWRTarget}
	cfg := Config{
		Sets: 1, SRAMWays: 1, NVMWays: 2,
		Policy: noMig, Thresholds: FixedThreshold(37),
		Endurance: testEndurance, Sampler: stats.NewRNG(31),
	}
	l := New(cfg)
	l.Insert(10, false, BlockTag{}, incompressibleBlock()) // big -> SRAM
	l.GetS(10)                                             // read-reuse
	l.Insert(11, false, BlockTag{}, incompressibleBlock()) // evicts 10
	if l.Contains(10) {
		t.Fatal("no-migration ablation must evict, not migrate")
	}
	if l.Stats.Migrations != 0 {
		t.Fatal("migration counter should be zero")
	}
}

func TestRotateNVMSetsFlushes(t *testing.T) {
	l := newAblLLC(t, nil)
	l.Insert(1, false, BlockTag{}, compressibleBlock())                   // NVM
	l.Insert(2, true, BlockTag{Reuse: ReuseWrite}, incompressibleBlock()) // SRAM (write reuse)
	if p, _ := l.PartitionOf(1); p != NVM {
		t.Fatal("setup: block 1 should be in NVM")
	}
	flushed := l.RotateNVMSets(1)
	if flushed != 1 {
		t.Fatalf("flushed %d entries, want 1", flushed)
	}
	if l.Contains(1) {
		t.Fatal("NVM entry should be flushed by rotation")
	}
	if !l.Contains(2) {
		t.Fatal("SRAM entry must survive rotation")
	}
	if l.Array().SetRemap() != 1 {
		t.Fatal("rotation not applied to the array")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRotateNVMSetsDirtyWriteback(t *testing.T) {
	l := newAblLLC(t, nil)
	l.Insert(1, true, BlockTag{}, compressibleBlock()) // dirty, NVM (small)
	if p, _ := l.PartitionOf(1); p != NVM {
		t.Skip("block not in NVM under this policy path")
	}
	w0 := l.Stats.Writebacks
	l.RotateNVMSets(1)
	if l.Stats.Writebacks != w0+1 {
		t.Fatal("dirty flushed entry must write back")
	}
}

func TestRRIPVictimSelection(t *testing.T) {
	cfg := Config{
		Sets: 1, SRAMWays: 0, NVMWays: 3,
		Policy:         testCP,
		Thresholds:     FixedThreshold(64),
		Endurance:      testEndurance,
		Sampler:        stats.NewRNG(8),
		NVMReplacement: FitRRIP,
	}
	l := New(cfg)
	// Fill all three ways (all inserts land in NVM; SRAMWays=0).
	l.Insert(0, false, BlockTag{}, compressibleBlock())
	l.Insert(1, false, BlockTag{}, compressibleBlock())
	l.Insert(2, false, BlockTag{}, compressibleBlock())
	// Promote block 1 (rrpv 0); 0 and 2 stay at insertion rrpv 2.
	l.GetS(1)
	// Next insert must evict one of the unpromoted blocks, never block 1.
	l.Insert(3, false, BlockTag{}, compressibleBlock())
	if !l.Contains(1) {
		t.Fatal("RRIP evicted the promoted block")
	}
	if l.Contains(0) && l.Contains(2) {
		t.Fatal("nothing was evicted")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRRIPAgingTerminates(t *testing.T) {
	cfg := Config{
		Sets: 1, SRAMWays: 0, NVMWays: 2,
		Policy:         testCP,
		Thresholds:     FixedThreshold(64),
		Endurance:      testEndurance,
		Sampler:        stats.NewRNG(8),
		NVMReplacement: FitRRIP,
	}
	l := New(cfg)
	l.Insert(0, false, BlockTag{}, compressibleBlock())
	l.Insert(1, false, BlockTag{}, compressibleBlock())
	l.GetS(0)
	l.GetS(1) // both promoted to rrpv 0: eviction requires aging rounds
	l.Insert(2, false, BlockTag{}, compressibleBlock())
	if l.Occupancy(0) != 2 {
		t.Fatal("insert after full promotion failed")
	}
}

func TestReplacementString(t *testing.T) {
	if FitLRU.String() != "fit-LRU" || FitRRIP.String() != "fit-RRIP" {
		t.Error("replacement names")
	}
	if Replacement(9).String() == "" {
		t.Error("unknown replacement should render")
	}
}
