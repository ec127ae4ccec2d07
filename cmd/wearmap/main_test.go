package main

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenOptions is a fixed quick run with wear-feedback coloring on the
// zipfian set-pressure mix: small windows keep it test-speed while still
// spanning several epochs, so the per-set heat columns carry real remaps.
func goldenOptions() options {
	cfg := core.QuickConfig()
	cfg.MixID = 11 // CLI mix 12: the multi-tenant interference scenario
	cfg.Seed = 42
	cfg.Coloring = &core.ColoringConfig{Scheme: core.ColoringWear, IntervalEpochs: 1, Pairs: 16}
	return options{Config: cfg, Capacity: 0.5, Warmup: 100_000, Measure: 400_000}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run go test -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// TestGoldenWearmap pins the wearmap report layout — the field set
// (including the sim_wear_* pre-aging family) and the per-set heat
// tables — and, because the golden bytes embed the measured values, the
// end-to-end determinism of the measure-then-age pipeline.
func TestGoldenWearmap(t *testing.T) {
	rep, err := run(goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file   string
		format report.Format
	}{
		{"golden_quick.txt", report.Text},
		{"golden_quick.json", report.JSON},
	} {
		var buf bytes.Buffer
		if err := rep.Write(&buf, tc.format); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.file, buf.Bytes())
	}
}

// TestWearmapColumns asserts the report shape directly, independent of
// the golden bytes: the wear-variation field family and the two per-set
// heat tables with their column sets.
func TestWearmapColumns(t *testing.T) {
	rep, err := run(goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf, report.Text); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"wear_interset_cov", "wear_intraset_cov", "wear_gini",
		"sim_wear_interset_cov", "sim_wear_intraset_cov", "sim_wear_gini",
		"coloring", "set wear (row mean)", "hottest sets", "mean_wear", "vs_mean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}

// TestWearmapRejects pins the error paths: an SRAM-only policy has no
// NVM array to map, and an invalid coloring or a capacity outside
// (0, 1] must fail before the simulation is built.
func TestWearmapRejects(t *testing.T) {
	opt := goldenOptions()
	opt.Config.PolicyName = "SRAM16"
	opt.Config.Coloring = nil
	if _, err := run(opt); err == nil {
		t.Fatal("SRAM-only policy produced a wear map")
	}
	opt = goldenOptions()
	opt.Config.Coloring.Pairs = -1
	if _, err := run(opt); err == nil {
		t.Fatal("invalid coloring accepted")
	}
	for _, c := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		opt = goldenOptions()
		opt.Capacity = c
		if _, err := run(opt); err == nil {
			t.Fatalf("capacity %v accepted", c)
		}
	}
}

// TestWearColoringLevelsSets is the wear-leveling claim (Mittal, arXiv
// 1310.8494) on the zipfian set-pressure mix: wear-feedback coloring
// cuts the simulated inter-set wear CoV by at least 30% against the
// same run uncolored, and does not shorten the lifetime to 50%
// capacity. Both reports must equal the archived
// results/coloring_smoke_{off,wear}.json byte for byte.
func TestWearColoringLevelsSets(t *testing.T) {
	var cov, months [2]float64
	for i, c := range []struct {
		name     string
		coloring *core.ColoringConfig
	}{{"off", nil}, {"wear", &core.ColoringConfig{Scheme: core.ColoringWear, IntervalEpochs: 2, Pairs: 32}}} {
		cfg, warmup, _ := preset(true)
		cfg.MixID, cfg.Coloring = 11, c.coloring
		rep, err := run(options{Config: cfg, Capacity: 0.5, Warmup: warmup, Measure: 8_000_000})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf, report.JSON); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("..", "..", "results", "coloring_smoke_"+c.name+".json")
		if want, err := os.ReadFile(path); err != nil || !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("report differs from %s (%v):\n%s", path, err, &buf)
		}
		for _, f := range rep.Fields() {
			switch f.Key {
			case "sim_wear_interset_cov":
				cov[i] = f.Value.(float64)
			case "aged_months":
				months[i] = f.Value.(float64)
			}
		}
	}
	if !(cov[1] <= 0.7*cov[0]) {
		t.Errorf("inter-set wear CoV %v -> %v, a cut under 30%%", cov[0], cov[1])
	}
	if !(months[1] >= months[0]) {
		t.Errorf("lifetime to 50%% capacity fell %v -> %v months", months[0], months[1])
	}
}
