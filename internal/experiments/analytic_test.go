package experiments

import (
	"math"
	"testing"

	"repro/internal/analytic"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/forecast"
)

// TestAnalyticDifferentialAccuracy is the differential accuracy suite:
// the analytic estimator against the full forecast over three seeded
// mixes × three policies, every cell required to respect the estimate's
// own reported error bounds. The calibration window is deliberately
// SHORTER than the forecast's phase window — with equal windows the
// young-IPC comparison is bit-exact and the suite would pin nothing.
func TestAnalyticDifferentialAccuracy(t *testing.T) {
	base := quickBase()
	base.EnduranceMean = 2e4
	fcfg := forecast.DefaultConfig()
	fcfg.WarmupCycles = 200_000
	fcfg.PhaseCycles = 800_000
	fcfg.CapacityStep = 0.125
	fcfg.MaxPhases = 8
	specs := []ForecastSpec{
		{"BH", func(c *core.Config) { c.PolicyName = "BH" }},
		{"LHybrid", func(c *core.Config) { c.PolicyName = "LHybrid" }},
		{"CP_SD", func(c *core.Config) { c.PolicyName = "CP_SD" }},
	}
	// Mix 5 is excluded deliberately: LHybrid's write behavior there
	// changes qualitatively as the array ages (the forecast censors only
	// after re-measuring an aged cache), which no young-window model can
	// see — the estimator's validity domain is cells whose censoring
	// verdict is age-stable.
	mixes := []int{0, 3, 6}

	cells, taskResults, err := AnalyticValidation(base, specs, mixes, fcfg, 200_000, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	if fails := cliutil.Failures(taskResults); len(fails) != 0 {
		t.Fatalf("task failures: %+v", fails)
	}
	if len(cells) != len(specs)*len(mixes) {
		t.Fatalf("%d cells, want %d", len(cells), len(specs)*len(mixes))
	}
	redistributed := 0
	for _, c := range cells {
		t.Logf("%-8s mix=%d  ipc_err=%.4f (bound %.3f)  life_err=%.4f (bound %.3f)  redistributed=%v censored=%v/%v",
			c.Policy, c.Mix+1, c.IPCRelErr, c.Est.IPCErrorBound,
			c.LifetimeRelErr, c.Est.LifetimeErrorBound,
			c.Est.Redistributed, c.SimCensored, c.Est.Censored)
		if !c.WithinBounds() {
			t.Errorf("%s mix=%d outside its own bounds: ipc %.4f > %.3f or lifetime %.4f > %.3f",
				c.Policy, c.Mix+1, c.IPCRelErr, c.Est.IPCErrorBound,
				c.LifetimeRelErr, c.Est.LifetimeErrorBound)
		}
		if c.Est.YoungIPC <= 0 {
			t.Errorf("%s mix=%d degenerate estimate: %+v", c.Policy, c.Mix+1, c.Est)
		}
		if c.Est.Redistributed {
			redistributed++
			if c.Est.LifetimeErrorBound < analytic.RedistributedLifetimeBound {
				t.Errorf("%s mix=%d redistributed estimate carries bound %.3f < %.3f",
					c.Policy, c.Mix+1, c.Est.LifetimeErrorBound, analytic.RedistributedLifetimeBound)
			}
		}
	}
	// LHybrid concentrates its young writes on too few frames to reach
	// the target at frozen rates — the suite must exercise the fallback.
	if redistributed == 0 {
		t.Error("no cell exercised the uniform-redistribution fallback")
	}
}

// TestAnalyticComparisonQuick pins the fast-path counterpart of
// ForecastComparison (cmd/forecast -analytic): same aggregate shape,
// one calibration per cell.
func TestAnalyticComparisonQuick(t *testing.T) {
	base := quickBase()
	base.EnduranceMean = 2e4
	specs := []ForecastSpec{
		{"BH", func(c *core.Config) { c.PolicyName = "BH" }},
		{"SRAM16", func(c *core.Config) { c.PolicyName = "SRAM16" }},
	}
	fs, taskResults, err := AnalyticComparison(base, specs, []int{0}, 200_000, 400_000)
	if err != nil {
		t.Fatal(err)
	}
	if fails := cliutil.Failures(taskResults); len(fails) != 0 {
		t.Fatalf("task failures: %+v", fails)
	}
	if len(fs) != 2 {
		t.Fatalf("%d forecasts", len(fs))
	}
	bh, ok := FindSpec(fs, "BH")
	if !ok || len(bh.PerMix) != 1 {
		t.Fatal("BH aggregate missing")
	}
	if bh.InitialIPC <= 0 {
		t.Fatal("no initial IPC")
	}
	if math.IsInf(bh.MeanLifetimeMonths, 1) || bh.MeanLifetimeMonths <= 0 {
		t.Fatalf("BH lifetime %v", bh.MeanLifetimeMonths)
	}
	sram, ok := FindSpec(fs, "SRAM16")
	if !ok {
		t.Fatal("SRAM16 aggregate missing")
	}
	if sram.CensoredMixes != 1 || !math.IsInf(sram.MeanLifetimeMonths, 1) {
		t.Fatalf("SRAM bound must be censored: %+v", sram)
	}
}
