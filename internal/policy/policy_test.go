package policy

import (
	"testing"

	"repro/internal/hybrid"
	"repro/internal/nvm"
)

func info(reuse hybrid.ReuseClass, cb, cpth int, dirty bool, lb bool, hits uint8) hybrid.InsertInfo {
	return hybrid.InsertInfo{
		Dirty:  dirty,
		CBSize: cb,
		CPth:   cpth,
		Tag:    hybrid.BlockTag{Reuse: reuse, LB: lb, Hits: hits},
	}
}

// TestTraitsTableIII pins each policy's Table III row and the disabling
// granularity it implies.
func TestTraitsTableIII(t *testing.T) {
	cases := []struct {
		pol  hybrid.Policy
		name string
		want hybrid.Traits
		gran nvm.Granularity
	}{
		{BH{}, "BH", hybrid.Traits{Global: true}, nvm.FrameDisabling},
		{BHCP{}, "BH_CP", hybrid.Traits{Compressed: true, Global: true}, nvm.ByteDisabling},
		{LHybrid{}, "LHybrid", hybrid.Traits{Migrate: hybrid.MigrateLoopBlock}, nvm.FrameDisabling},
		{TAP{}, "TAP", hybrid.Traits{}, nvm.FrameDisabling},
		{CA{}, "CA", hybrid.Traits{Compressed: true}, nvm.ByteDisabling},
		{CARWR{}, "CA_RWR", hybrid.Traits{Compressed: true, Migrate: hybrid.MigrateReadReuse}, nvm.ByteDisabling},
		{CARWR{NoMigration: true}, "CA_RWR", hybrid.Traits{Compressed: true}, nvm.ByteDisabling},
		{SRAMOnly{}, "SRAM", hybrid.Traits{Global: true}, nvm.FrameDisabling},
	}
	for _, c := range cases {
		if c.pol.Name() != c.name {
			t.Errorf("name %q, want %q", c.pol.Name(), c.name)
		}
		if got := c.pol.Traits(); got != c.want {
			t.Errorf("%s traits = %+v, want %+v", c.name, got, c.want)
		}
		if got := c.pol.Traits().Granularity(); got != c.gran {
			t.Errorf("%s granularity = %v, want %v", c.name, got, c.gran)
		}
	}
}

func TestCARWRName(t *testing.T) {
	if (CARWR{PolicyName: "CP_SD"}).Name() != "CP_SD" {
		t.Error("custom name not honoured")
	}
}

func TestCATarget(t *testing.T) {
	p := CA{}
	if p.Target(info(hybrid.ReuseNone, 30, 37, false, false, 0)) != hybrid.NVM {
		t.Error("small block should target NVM")
	}
	if p.Target(info(hybrid.ReuseNone, 37, 37, false, false, 0)) != hybrid.NVM {
		t.Error("block at threshold should be small (<=)")
	}
	if p.Target(info(hybrid.ReuseNone, 38, 37, false, false, 0)) != hybrid.SRAM {
		t.Error("big block should target SRAM")
	}
	// CA ignores reuse entirely.
	if p.Target(info(hybrid.ReuseWrite, 30, 37, true, false, 0)) != hybrid.NVM {
		t.Error("CA must ignore reuse class")
	}
}

// TestCARWRTableII checks every row of the paper's decision table.
func TestCARWRTableII(t *testing.T) {
	p := CARWR{}
	const cpth = 37
	cases := []struct {
		reuse hybrid.ReuseClass
		cb    int
		want  hybrid.Partition
	}{
		{hybrid.ReuseNone, 30, hybrid.NVM},   // no reuse, small
		{hybrid.ReuseNone, 64, hybrid.SRAM},  // no reuse, big
		{hybrid.ReuseRead, 30, hybrid.NVM},   // read reuse, small
		{hybrid.ReuseRead, 64, hybrid.NVM},   // read reuse, big -> still NVM
		{hybrid.ReuseWrite, 30, hybrid.SRAM}, // write reuse, small -> still SRAM
		{hybrid.ReuseWrite, 64, hybrid.SRAM}, // write reuse, big
	}
	for _, c := range cases {
		got := p.Target(info(c.reuse, c.cb, cpth, false, false, 0))
		if got != c.want {
			t.Errorf("reuse=%v cb=%d: %v, want %v", c.reuse, c.cb, got, c.want)
		}
	}
}

func TestLHybridTarget(t *testing.T) {
	p := LHybrid{}
	if p.Target(info(hybrid.ReuseNone, 64, 0, false, true, 0)) != hybrid.NVM {
		t.Error("LB should target NVM")
	}
	if p.Target(info(hybrid.ReuseNone, 64, 0, false, false, 0)) != hybrid.SRAM {
		t.Error("NLB should target SRAM")
	}
}

func TestTAPTarget(t *testing.T) {
	p := TAP{HThresh: 1}
	// Clean block with >1 hits: thrashing -> NVM.
	if p.Target(info(hybrid.ReuseNone, 64, 0, false, false, 2)) != hybrid.NVM {
		t.Error("clean thrashing block should target NVM")
	}
	// Exactly HThresh hits is not enough ("more than").
	if p.Target(info(hybrid.ReuseNone, 64, 0, false, false, 1)) != hybrid.SRAM {
		t.Error("block with hits == HThresh should target SRAM")
	}
	// Dirty thrashing blocks stay in SRAM.
	if p.Target(info(hybrid.ReuseNone, 64, 0, true, false, 5)) != hybrid.SRAM {
		t.Error("dirty block must never target NVM under TAP")
	}
}

func TestTAPDefaultThreshold(t *testing.T) {
	p := TAP{} // zero value behaves as HThresh=1
	if p.Target(info(hybrid.ReuseNone, 64, 0, false, false, 2)) != hybrid.NVM {
		t.Error("zero-value TAP should behave as HThresh=1")
	}
	if p.Target(info(hybrid.ReuseNone, 64, 0, false, false, 1)) != hybrid.SRAM {
		t.Error("zero-value TAP threshold wrong")
	}
}

func TestTAPMoreConservativeThanLHybrid(t *testing.T) {
	// A block with exactly one LLC hit: LHybrid admits it (LB), TAP not.
	lb := info(hybrid.ReuseNone, 64, 0, false, true, 1)
	if (LHybrid{}).Target(lb) != hybrid.NVM {
		t.Error("LHybrid should admit single-hit loop block")
	}
	if (TAP{HThresh: 1}).Target(lb) != hybrid.SRAM {
		t.Error("TAP should reject single-hit block (§II-C)")
	}
}

// TestThresholdUsage: the LLC fills CPth for every policy, so only the
// compression-aware policies may steer by it.
func TestThresholdUsage(t *testing.T) {
	for _, p := range []hybrid.Policy{CA{}, CARWR{}} {
		small, big := info(hybrid.ReuseNone, 40, 58, false, false, 0), info(hybrid.ReuseNone, 40, 37, false, false, 0)
		if p.Target(small) == p.Target(big) {
			t.Errorf("%s must steer by CPth", p.Name())
		}
	}
	for _, p := range []hybrid.Policy{BH{}, BHCP{}, LHybrid{}, TAP{}} {
		for _, i := range []hybrid.InsertInfo{
			info(hybrid.ReuseNone, 40, 0, false, true, 2),
			info(hybrid.ReuseRead, 20, 0, false, false, 3),
			info(hybrid.ReuseNone, 64, 0, true, true, 0),
		} {
			j := i
			j.CPth = 64
			if p.Target(i) != p.Target(j) {
				t.Errorf("%s must not steer by CPth (%+v)", p.Name(), i)
			}
		}
	}
}

func TestMigrationTraits(t *testing.T) {
	// Only CA_RWR (and thus CP_SD) migrates read-reused SRAM victims;
	// only LHybrid uses the loop-block migration on SRAM replacement.
	for _, p := range []hybrid.Policy{BH{}, BHCP{}, CA{}, LHybrid{}, TAP{}, SRAMOnly{}} {
		if p.Traits().Migrate == hybrid.MigrateReadReuse {
			t.Errorf("%s must not migrate read-reuse victims", p.Name())
		}
	}
	for _, p := range []hybrid.Policy{BH{}, BHCP{}, CA{}, CARWR{}, TAP{}, SRAMOnly{}} {
		if p.Traits().Migrate == hybrid.MigrateLoopBlock {
			t.Errorf("%s must not use LHybrid migration", p.Name())
		}
	}
	for _, p := range []hybrid.Policy{CARWR{}, CARWR{PolicyName: "CP_SD"}} {
		if p.Traits().Migrate != hybrid.MigrateReadReuse {
			t.Errorf("%s must migrate read-reuse victims", p.Name())
		}
	}
	if (LHybrid{}).Traits().Migrate != hybrid.MigrateLoopBlock {
		t.Error("LHybrid must use the loop-block migration")
	}
	if (CARWR{NoMigration: true}).Traits().Migrate != hybrid.MigrateNone {
		t.Error("NoMigration ablation must disable migration")
	}
}

func TestGlobalPoliciesTargetUnused(t *testing.T) {
	// Global policies never get Target called by the LLC, but the method
	// must still return a sane value for interface completeness.
	i := info(hybrid.ReuseNone, 64, 64, false, false, 0)
	if (BH{}).Target(i) != hybrid.SRAM || (BHCP{}).Target(i) != hybrid.SRAM ||
		(SRAMOnly{}).Target(i) != hybrid.SRAM {
		t.Error("global policy Target should default to SRAM")
	}
}
