package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/forecast"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/experiment_digests.json")

const experimentDigestsFile = "testdata/experiment_digests.json"

// TestExperimentDigests pins the exact values every grid driver returns
// on QuickConfig, two mixes and small windows: each driver's result is
// printed with %#v (shortest round-trip floats, so full precision, and
// no Stringer rounding) and hashed. A refactor of the experiment harness that claims to leave the
// figures untouched proves it here; a deliberate change refreshes the
// file with -update and says why.
func TestExperimentDigests(t *testing.T) {
	base := quickBase()
	base.EnduranceMean = 2e4 // the forecasts age within a few phases
	mixes := []int{0, 3}
	const warmup, measure = 100_000, 300_000
	fcfg := forecast.DefaultConfig()
	fcfg.WarmupCycles = warmup
	fcfg.PhaseCycles = measure
	fcfg.CapacityStep = 0.125
	fcfg.MaxPhases = 6
	specs := []Variant{
		policyVariant("BH"),
		policyVariant("LHybrid"),
		{"CP_SD_Th4", func(c *core.Config) { c.PolicyName = "CP_SD_Th"; c.Th = 4; c.Tw = 5 }},
	}
	drivers := []struct {
		name string
		run  func() (any, []cliutil.TaskResult, error)
	}{
		{"fig67", func() (any, []cliutil.TaskResult, error) {
			sweep, results, err := Fig6And7CPthSweep(base, mixes, warmup, measure)
			return sweep, results, err
		}},
		{"fig8", func() (any, []cliutil.TaskResult, error) {
			res, err := Fig8OptimalCPth(base, mixes, []float64{1.0, 0.8}, 1, 3)
			return res, nil, err
		}},
		{"fig9", func() (any, []cliutil.TaskResult, error) {
			pts, results, err := Fig9ThTradeoff(base, mixes, []float64{0, 4}, []float64{1.0, 0.8}, warmup, measure)
			return pts, results, err
		}},
		{"epochsweep", func() (any, []cliutil.TaskResult, error) {
			rows, err := EpochSizeSweep(base, mixes, []uint64{250_000, 500_000}, warmup, measure)
			return rows, nil, err
		}},
		{"energy", func() (any, []cliutil.TaskResult, error) {
			rows, results := EnergyComparison(base, []string{"BH", "LHybrid", "CP_SD"}, mixes, warmup, measure)
			return rows, results, nil
		}},
		{"forecast", func() (any, []cliutil.TaskResult, error) {
			fs, results := ForecastComparison(base, specs, mixes, SimulateCell(fcfg))
			return fs, results, nil
		}},
		{"analytic", func() (any, []cliutil.TaskResult, error) {
			fs, results := ForecastComparison(base, specs, mixes, EstimateCell(warmup, measure))
			return fs, results, nil
		}},
		{"validation", func() (any, []cliutil.TaskResult, error) {
			cells, results := AnalyticValidation(base, specs, mixes, fcfg, warmup, measure)
			return cells, results, nil
		}},
	}
	got := map[string]string{}
	for _, d := range drivers {
		v, results, err := d.run()
		if err == nil {
			err = cliutil.ErrOf(results)
		}
		if err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		sum := sha256.Sum256(fmt.Appendf(nil, "%#v", v))
		got[d.name] = hex.EncodeToString(sum[:])
	}

	if *updateDigests {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(experimentDigestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentDigestsFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(experimentDigestsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded digests, %d drivers", len(want), len(got))
	}
	for _, d := range drivers {
		if got[d.name] != want[d.name] {
			t.Errorf("%s drifted: got %s, want %s", d.name, got[d.name], want[d.name])
		}
	}
}
