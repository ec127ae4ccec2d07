package experiments

import (
	"math"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/forecast"
)

// TestAnalyticDifferentialAccuracy is the differential accuracy suite:
// the analytic estimator against the full forecast over four seeded
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
	specs := []Variant{policyVariant("BH"), policyVariant("LHybrid"), policyVariant("CP_SD")}
	mixes := []int{0, 3, 4, 6}

	cells, taskResults := AnalyticValidation(base, specs, mixes, fcfg, 200_000, 600_000)
	if fails := cliutil.Failures(taskResults); len(fails) != 0 {
		t.Fatalf("task failures: %+v", fails)
	}
	if len(cells) != len(specs)*len(mixes) {
		t.Fatalf("%d cells, want %d", len(cells), len(specs)*len(mixes))
	}
	for _, c := range cells {
		t.Logf("%-8s mix=%d  ipc_err=%.4f (bound %.3f)  life_err=%.4f (bound %.3f)  censored=%v/%v",
			c.Policy, c.Mix+1, c.IPCRelErr, c.Est.IPCErrorBound,
			c.LifetimeRelErr, c.Est.LifetimeErrorBound,
			c.SimCensored, c.Est.Censored)
		if !c.WithinBounds() {
			t.Errorf("%s mix=%d outside its own bounds: ipc %.4f > %.3f or lifetime %.4f > %.3f",
				c.Policy, c.Mix+1, c.IPCRelErr, c.Est.IPCErrorBound,
				c.LifetimeRelErr, c.Est.LifetimeErrorBound)
		}
		if c.Est.YoungIPC <= 0 {
			t.Errorf("%s mix=%d degenerate estimate: %+v", c.Policy, c.Mix+1, c.Est)
		}
		// LHybrid's cells set the single lifetime bound; BH and CP_SD
		// must stay within the tighter bound they were fitted to before,
		// so the wider one cannot hide drift on them.
		if c.Policy != "LHybrid" && c.LifetimeRelErr > steadyLifetimeBound {
			t.Errorf("%s mix=%d lifetime error %.4f > %.2f", c.Policy, c.Mix+1, c.LifetimeRelErr, steadyLifetimeBound)
		}
	}
}

// steadyLifetimeBound is the lifetime error bound the BH and CP_SD cells
// of TestAnalyticDifferentialAccuracy keep: 2.5× their worst observed
// error, 0.153.
const steadyLifetimeBound = 0.40

// TestAnalyticComparisonQuick pins ForecastComparison on the one-step
// EstimateCell (cmd/forecast -analytic): same aggregate shape, one
// calibration per cell.
func TestAnalyticComparisonQuick(t *testing.T) {
	base := quickBase()
	base.EnduranceMean = 2e4
	specs := []Variant{policyVariant("BH"), policyVariant("SRAM16")}
	fs, taskResults := ForecastComparison(base, specs, []int{0}, EstimateCell(200_000, 400_000))
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
