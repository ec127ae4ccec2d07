package core

import (
	"math"
	"testing"
)

func TestDefaultConfigBuilds(t *testing.T) {
	for _, name := range Policies() {
		cfg := QuickConfig()
		cfg.PolicyName = name
		cfg.Th = 4
		sys, err := cfg.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := sys.Run(100_000)
		if r.MeanIPC <= 0 {
			t.Errorf("%s: zero IPC", name)
		}
	}
}

func TestUnknownPolicyRejected(t *testing.T) {
	cfg := QuickConfig()
	cfg.PolicyName = "NOPE"
	if _, err := cfg.Build(); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestBadScaleRejected(t *testing.T) {
	cfg := QuickConfig()
	cfg.Scale = 0
	if _, err := cfg.Build(); err == nil {
		t.Fatal("zero scale accepted")
	}
}

func TestBadMixRejected(t *testing.T) {
	cfg := QuickConfig()
	cfg.MixID = 99
	if _, err := cfg.Build(); err == nil {
		t.Fatal("invalid mix accepted")
	}
}

func TestSRAMBoundGeometry(t *testing.T) {
	cfg := QuickConfig()
	cfg.PolicyName = "SRAM16"
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.LLC().SRAMWays() != 16 || sys.LLC().NVMWays() != 0 {
		t.Fatalf("SRAM16 geometry %d/%d", sys.LLC().SRAMWays(), sys.LLC().NVMWays())
	}
	cfg.PolicyName = "SRAM4"
	sys, err = cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.LLC().SRAMWays() != 4 || sys.LLC().NVMWays() != 0 {
		t.Fatalf("SRAM4 geometry %d/%d", sys.LLC().SRAMWays(), sys.LLC().NVMWays())
	}
}

func TestNVMLatencyFactor(t *testing.T) {
	cfg := DefaultConfig()
	base := cfg.Latencies()
	if base.LLCNVM != 32 {
		t.Fatalf("base NVM latency %d, want 32", base.LLCNVM)
	}
	cfg.NVMLatencyFactor = 1.5
	lat := cfg.Latencies()
	if lat.LLCNVM != 36 { // 24 + 8*1.5 (paper §V-F: 8 -> 12-cycle D-array)
		t.Fatalf("1.5x NVM latency %d, want 36", lat.LLCNVM)
	}
	if lat.LLCSRAM != base.LLCSRAM {
		t.Fatal("SRAM latency must not change")
	}
}

func TestDuelingAccessor(t *testing.T) {
	cfg := QuickConfig()
	cfg.PolicyName = "CP_SD"
	sys, _ := cfg.Build()
	if _, ok := Dueling(sys); !ok {
		t.Fatal("CP_SD should expose a dueling controller")
	}
	cfg.PolicyName = "BH"
	sys, _ = cfg.Build()
	if _, ok := Dueling(sys); ok {
		t.Fatal("BH should not have a dueling controller")
	}
}

func TestCPSDThNaming(t *testing.T) {
	cfg := QuickConfig()
	cfg.PolicyName = "CP_SD_Th"
	cfg.Th = 8
	sys, _ := cfg.Build()
	if got := sys.LLC().Policy().Name(); got != "CP_SD_Th8" {
		t.Fatalf("policy name %q", got)
	}
	d, ok := Dueling(sys)
	if !ok || d.Th != 8 || d.Tw != 5 {
		t.Fatalf("controller Th/Tw = %v/%v", d.Th, d.Tw)
	}
}

func TestPreAge(t *testing.T) {
	cfg := QuickConfig()
	cfg.PolicyName = "CP_SD"
	sys, _ := cfg.Build()
	PreAge(sys, 0.8)
	got := sys.LLC().EffectiveCapacityFraction()
	if math.Abs(got-0.8) > 0.02 {
		t.Fatalf("pre-aged capacity %v, want ~0.8", got)
	}
	// Phase counters must be clean afterwards so the next forecast phase
	// measures only real traffic.
	if sys.LLC().Array().PhaseBytesWritten() != 0 {
		t.Fatal("pre-age leaked phase counters")
	}
	// System still runs.
	if r := sys.Run(100_000); r.MeanIPC <= 0 {
		t.Fatal("aged system does not run")
	}
}

func TestPreAgeNoopAtFullCapacity(t *testing.T) {
	cfg := QuickConfig()
	sys, _ := cfg.Build()
	PreAge(sys, 1.0)
	if sys.LLC().EffectiveCapacityFraction() != 1.0 {
		t.Fatal("PreAge(1.0) should not age")
	}
}

func TestMeasure(t *testing.T) {
	cfg := QuickConfig()
	sys, _ := cfg.Build()
	s := Measure(sys, 100_000, 400_000)
	if s.Policy != "CP_SD" {
		t.Errorf("policy %q", s.Policy)
	}
	if s.MeanIPC <= 0 || s.Hits == 0 || s.Capacity != 1.0 {
		t.Errorf("summary %+v", s)
	}
	if s.HitRate <= 0 || s.HitRate > 1 {
		t.Errorf("hit rate %v", s.HitRate)
	}
}

func TestAllMixes(t *testing.T) {
	// The paper's ten Table V mixes plus the skewed-traffic scenarios
	// (zipfian set pressure, multi-tenant interference).
	if len(AllMixes()) != 12 {
		t.Fatalf("AllMixes = %v", AllMixes())
	}
}

// TestPolicyOrderingSanity is the repo's headline smoke check: on a real
// (small) run, the policy hit-rate and NVM-write orderings the paper
// relies on must hold: BH is the hit-rate reference, LHybrid/TAP write far
// less NVM than BH, and CP_SD sits between.
func TestPolicyOrderingSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy run")
	}
	measure := func(name string) Summary {
		cfg := QuickConfig()
		cfg.PolicyName = name
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		return Measure(sys, 1_000_000, 4_000_000)
	}
	bh := measure("BH")
	lh := measure("LHybrid")
	cp := measure("CP_SD")
	if lh.NVMBytesWritten >= bh.NVMBytesWritten {
		t.Errorf("LHybrid NVM bytes %d !< BH %d", lh.NVMBytesWritten, bh.NVMBytesWritten)
	}
	if cp.NVMBytesWritten >= bh.NVMBytesWritten {
		t.Errorf("CP_SD NVM bytes %d !< BH %d", cp.NVMBytesWritten, bh.NVMBytesWritten)
	}
	if cp.HitRate < lh.HitRate*0.95 {
		t.Errorf("CP_SD hit rate %.3f far below LHybrid %.3f", cp.HitRate, lh.HitRate)
	}
}

func TestBankConfig(t *testing.T) {
	cfg := QuickConfig()
	if cfg.LLCBanks != 4 {
		t.Fatalf("default banks = %d, want 4 (Table IV)", cfg.LLCBanks)
	}
	cfg.LLCBanks = 0
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(300_000)
	if sys.BankStallCycles != 0 {
		t.Error("disabled banks recorded stalls")
	}
	cfg.LLCBanks = 4
	sys2, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys2.Run(300_000)
	if sys2.BankStallCycles == 0 {
		t.Error("enabled banks recorded no stalls")
	}
}

func TestPrefetchConfig(t *testing.T) {
	cfg := QuickConfig()
	cfg.EnablePrefetcher = true
	cfg.PrefetchDegree = 2
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(400_000)
	var issued uint64
	for _, c := range sys.Cores() {
		if c.Prefetcher() == nil {
			t.Fatal("prefetcher missing")
		}
		issued += c.Prefetcher().Issued
	}
	if issued == 0 {
		t.Error("no prefetches issued")
	}
}

func TestNVMRRIPConfig(t *testing.T) {
	cfg := QuickConfig()
	cfg.NVMRRIP = true
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := Measure(sys, 300_000, 600_000)
	if s.Hits == 0 {
		t.Error("RRIP system produced no hits")
	}
	if err := sys.LLC().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestBuildPolicyExported(t *testing.T) {
	cfg := QuickConfig()
	cfg.PolicyName = "LHybrid"
	pol, thr, sram, nvmW, err := BuildPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "LHybrid" || thr != nil || sram != cfg.SRAMWays || nvmW != cfg.NVMWays {
		t.Fatalf("BuildPolicy: %v %v %d %d", pol.Name(), thr, sram, nvmW)
	}
}

func TestMaterializeConfig(t *testing.T) {
	cfg := QuickConfig()
	cfg.MaterializeData = true
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !sys.LLC().Materialized() {
		t.Fatal("materialized mode not active")
	}
}
