package forecast

import (
	"math"
	"testing"

	"repro/internal/coloring"
	"repro/internal/hier"
	"repro/internal/hybrid"
	"repro/internal/nvm"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/workload"
)

func agedArray(t *testing.T, sets, ways int, gran nvm.Granularity, mean float64) *nvm.Array {
	t.Helper()
	return nvm.NewArray(sets, ways, nvm.EnduranceModel{Mean: mean, CV: 0.2}, stats.NewRNG(7), gran)
}

func TestAgeZeroRatesNeverKills(t *testing.T) {
	arr := agedArray(t, 8, 4, nvm.ByteDisabling, 1000)
	// No PhaseWritten: all rates zero.
	elapsed, cap := Age(arr, 1.0, 0.5, 3600)
	if elapsed != 3600 {
		t.Fatalf("elapsed = %v, want full horizon", elapsed)
	}
	if cap != 1.0 {
		t.Fatalf("capacity = %v, want 1.0", cap)
	}
}

func TestAgeUniformWearTiming(t *testing.T) {
	arr := agedArray(t, 4, 4, nvm.ByteDisabling, 1000)
	// Every frame gets 66 bytes per second: one write of a full block per
	// second -> per-byte wear rate 1/s. Weakest bytes (endurance ~ a few
	// hundred) should die after a few hundred seconds.
	for _, f := range arr.Frames() {
		f.RecordWrite(0) // ensure non-dead
	}
	for _, f := range arr.Frames() {
		for i := 0; i < 1; i++ {
			f.ResetPhase()
		}
	}
	// Manually set phase counters via RecordWrite of 66 bytes over a
	// 1-second phase.
	for _, f := range arr.Frames() {
		f.RecordWrite(nvm.FrameBytes)
	}
	elapsed, cap := Age(arr, 1.0, 0.9, 1e9)
	if cap > 0.9+1e-9 {
		t.Fatalf("capacity %v did not reach 0.9", cap)
	}
	// Endurance mean 1000, cv 0.2: deaths concentrate around wear ~1000
	// at ~66 bytes/s over 66 bytes = 1 wear/s -> elapsed in the hundreds.
	if elapsed < 100 || elapsed > 2000 {
		t.Fatalf("elapsed %v implausible for mean-1000 endurance at 1 wear/s", elapsed)
	}
}

func TestAgeStopsAtRequestedCapacity(t *testing.T) {
	arr := agedArray(t, 8, 4, nvm.ByteDisabling, 1000)
	for _, f := range arr.Frames() {
		f.RecordWrite(660)
	}
	_, cap := Age(arr, 1.0, 0.75, 1e12)
	if cap > 0.75+0.01 {
		t.Fatalf("capacity %v, want <= ~0.75", cap)
	}
	// Should not wildly overshoot either: one event granularity.
	if cap < 0.70 {
		t.Fatalf("capacity %v overshot the stop point", cap)
	}
}

func TestAgeFrameDisablingFasterCapacityLoss(t *testing.T) {
	frameArr := agedArray(t, 8, 4, nvm.FrameDisabling, 1000)
	byteArr := agedArray(t, 8, 4, nvm.ByteDisabling, 1000)
	for _, f := range frameArr.Frames() {
		f.RecordWrite(660)
	}
	for _, f := range byteArr.Frames() {
		f.RecordWrite(660)
	}
	tf, _ := Age(frameArr, 1.0, 0.5, 1e12)
	tb, _ := Age(byteArr, 1.0, 0.5, 1e12)
	if tf >= tb {
		t.Fatalf("frame disabling (%.0fs) should reach 50%% before byte disabling (%.0fs)", tf, tb)
	}
}

func TestAgeMonotonicCapacity(t *testing.T) {
	arr := agedArray(t, 8, 4, nvm.ByteDisabling, 1000)
	for _, f := range arr.Frames() {
		f.RecordWrite(660)
	}
	prev := 1.0
	for stop := 0.95; stop >= 0.5; stop -= 0.05 {
		_, cap := Age(arr, 1.0, stop, 1e12)
		if cap > prev+1e-9 {
			t.Fatalf("capacity rose from %v to %v", prev, cap)
		}
		prev = cap
		for _, f := range arr.Frames() {
			f.ResetPhase()
			f.RecordWrite(660)
		}
	}
}

func TestAgeHonoursMaxSeconds(t *testing.T) {
	arr := agedArray(t, 4, 4, nvm.ByteDisabling, 1e12) // effectively immortal
	for _, f := range arr.Frames() {
		f.RecordWrite(66)
	}
	elapsed, cap := Age(arr, 1.0, 0.5, 1000)
	if elapsed > 1000+1e-6 {
		t.Fatalf("elapsed %v exceeded horizon", elapsed)
	}
	if cap < 0.999 {
		t.Fatalf("immortal array lost capacity: %v", cap)
	}
}

func forecastSystem(t *testing.T, pol hybrid.Policy, thr hybrid.ThresholdProvider, mean float64) *hier.System {
	t.Helper()
	apps, err := workload.NewMix(0, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	llc := hybrid.New(hybrid.Config{
		Sets: 256, SRAMWays: 4, NVMWays: 12,
		Policy: pol, Thresholds: thr,
		Endurance: nvm.EnduranceModel{Mean: mean, CV: 0.2},
		Sampler:   stats.NewRNG(3),
	})
	cfg := hier.DefaultConfig()
	cfg.EpochCycles = 250_000
	return hier.New(cfg, llc, apps)
}

func quickForecastConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupCycles = 250_000
	cfg.PhaseCycles = 1_000_000
	cfg.CapacityStep = 0.1
	cfg.MaxPhases = 12
	return cfg
}

func TestRunReachesTarget(t *testing.T) {
	// Endurance low enough that the forecast reaches 50% within MaxPhases.
	sys := forecastSystem(t, policy.BH{}, nil, 2e4)
	res := Run(sys, quickForecastConfig())
	if math.IsInf(res.LifetimeSeconds, 1) {
		t.Fatalf("BH with 2e4 endurance should reach 50%% capacity; points: %d", len(res.Points))
	}
	if len(res.Points) < 2 {
		t.Fatalf("only %d points", len(res.Points))
	}
	last := res.Points[len(res.Points)-1]
	if last.Capacity > 0.55 {
		t.Errorf("final capacity %v, want ~0.5", last.Capacity)
	}
	// Time axis strictly increasing; capacity non-increasing.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].TimeSeconds < res.Points[i-1].TimeSeconds {
			t.Fatal("time went backwards")
		}
		if res.Points[i].Capacity > res.Points[i-1].Capacity+1e-9 {
			t.Fatal("capacity increased over time")
		}
	}
	if res.Policy != "BH" {
		t.Errorf("policy name %q", res.Policy)
	}
}

func TestRunPerformanceDegradesWithCapacity(t *testing.T) {
	sys := forecastSystem(t, policy.BH{}, nil, 2e4)
	res := Run(sys, quickForecastConfig())
	if len(res.Points) < 3 {
		t.Skip("too few points")
	}
	// The robust aging signal is the hit rate: capacity loss costs hits.
	// (IPC can move slightly either way at small scales because dead NVM
	// frames also relieve bank write-port contention.)
	first := res.Points[0].HitRate
	last := res.Points[len(res.Points)-1].HitRate
	if last >= first {
		t.Errorf("hit rate did not degrade as NVM capacity dropped: %.4f -> %.4f", first, last)
	}
	firstIPC := res.Points[0].MeanIPC
	lastIPC := res.Points[len(res.Points)-1].MeanIPC
	if lastIPC > firstIPC*1.10 {
		t.Errorf("IPC rose sharply (%.4f -> %.4f) despite capacity loss", firstIPC, lastIPC)
	}
}

func TestRunSRAMOnly(t *testing.T) {
	apps, err := workload.NewMix(0, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	llc := hybrid.New(hybrid.Config{
		Sets: 256, SRAMWays: 16, NVMWays: 0,
		Policy: policy.SRAMOnly{}, Sampler: stats.NewRNG(3),
	})
	sys := hier.New(hier.DefaultConfig(), llc, apps)
	res := Run(sys, quickForecastConfig())
	if !math.IsInf(res.LifetimeSeconds, 1) {
		t.Fatal("SRAM-only lifetime should be infinite")
	}
	if len(res.Points) != 1 || res.Points[0].MeanIPC <= 0 {
		t.Fatalf("SRAM-only forecast should yield one steady-state point, got %+v", res.Points)
	}
}

func TestLifetimeMonths(t *testing.T) {
	r := Result{LifetimeSeconds: SecondsPerMonth * 3}
	if math.Abs(r.LifetimeMonths()-3) > 1e-9 {
		t.Fatalf("months = %v", r.LifetimeMonths())
	}
}

func TestLHybridOutlivesBH(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-forecast comparison")
	}
	cfg := quickForecastConfig()
	bh := Run(forecastSystem(t, policy.BH{}, nil, 2e4), cfg)
	lh := Run(forecastSystem(t, policy.LHybrid{}, nil, 2e4), cfg)
	lhLife := lh.LifetimeSeconds
	bhLife := bh.LifetimeSeconds
	if !math.IsInf(lhLife, 1) && lhLife <= bhLife {
		t.Errorf("LHybrid lifetime (%.0fs) should exceed BH (%.0fs)", lhLife, bhLife)
	}
}

// TestAgeScaleInvariance: doubling every frame's write rate must halve the
// time to reach a given capacity (wear accrual is linear in rate).
func TestAgeScaleInvariance(t *testing.T) {
	mk := func(mult int) *nvm.Array {
		arr := nvm.NewArray(8, 4, nvm.EnduranceModel{Mean: 1000, CV: 0.2},
			stats.NewRNG(11), nvm.ByteDisabling)
		for _, f := range arr.Frames() {
			f.RecordWrite(66 * mult)
		}
		return arr
	}
	t1, _ := Age(mk(1), 1.0, 0.8, 1e12)
	t2, _ := Age(mk(2), 1.0, 0.8, 1e12)
	if t1 <= 0 || t2 <= 0 {
		t.Fatal("no aging happened")
	}
	ratio := t1 / t2
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("rate doubling changed time by %.4fx, want 2x", ratio)
	}
}

// TestRunWithRotatingColoring: a forecast over an LLC whose coloring
// rotates the set mapping every epoch must keep capacity monotone, and
// the mapping must actually move.
func TestRunWithRotatingColoring(t *testing.T) {
	apps, err := workload.NewMix(0, 1, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	rot, err := coloring.NewRotation(256, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	llc := hybrid.New(hybrid.Config{
		Sets: 256, SRAMWays: 4, NVMWays: 12,
		Policy:    policy.CARWR{PolicyName: "CP_SD"},
		Endurance: nvm.EnduranceModel{Mean: 2e4, CV: 0.2},
		Sampler:   stats.NewRNG(3),
		SetMapper: rot, SetMapperAdvance: true,
	})
	hcfg := hier.DefaultConfig()
	hcfg.EpochCycles = 250_000
	res := Run(hier.New(hcfg, llc, apps), quickForecastConfig())
	if len(res.Points) < 2 {
		t.Fatalf("%d points", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Capacity > res.Points[i-1].Capacity+1e-9 {
			t.Fatal("capacity increased under rotation")
		}
	}
	if rot.Offset() == 0 {
		t.Error("rotation never advanced")
	}
}
