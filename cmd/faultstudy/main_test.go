package main

import (
	"bytes"
	"encoding/csv"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

func quickOpts() studyOptions {
	cfg := core.QuickConfig()
	cfg.Seed = 11
	cfg.CheckEvery = 5_000
	return studyOptions{Config: cfg, Target: 0.5, Step: 0.125, Warmup: 150_000, Measure: 150_000}
}

// TestStudyDeterminism: two same-seed studies must emit bit-identical
// reports — the acceptance bar for replayable fault campaigns.
func TestStudyDeterminism(t *testing.T) {
	render := func() string {
		rep, violations, err := runStudy(quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		if violations != 0 {
			t.Fatalf("%d invariant violations during degradation", violations)
		}
		var buf bytes.Buffer
		if err := rep.Write(&buf, report.JSON); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatalf("same-seed reports differ:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

// TestStudyReachesTarget runs the test preset and the study faultstudy
// -quick runs (its flag defaults): each must ramp the capacity down to
// the target with no invariant violation.
func TestStudyReachesTarget(t *testing.T) {
	t.Run("test", func(t *testing.T) { studyReachesTarget(t, quickOpts()) })
	cfg, warmup, measure := preset(true)
	cfg.CheckEvery = 10_000
	cli := studyOptions{Config: cfg, Target: 0.5, Step: 0.1, Warmup: warmup, Measure: measure}
	t.Run("cli-quick", func(t *testing.T) { studyReachesTarget(t, cli) })
}

func studyReachesTarget(t *testing.T, opt studyOptions) {
	rep, violations, err := runStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if violations != 0 {
		t.Fatalf("%d violations", violations)
	}
	var finalCap float64
	var steps int
	for _, f := range rep.Fields() {
		switch f.Key {
		case "final_capacity":
			finalCap = f.Value.(float64)
		case "campaign_steps":
			steps = f.Value.(int)
		}
	}
	if finalCap > 0.5 {
		t.Fatalf("final capacity %.3f, want <= 0.5", finalCap)
	}
	if steps < 3 {
		t.Fatalf("only %d campaign steps", steps)
	}
	// Degradation table must have the baseline plus one row per step.
	tabs := rep.Tables()
	if len(tabs) == 0 || tabs[0].Rows() != steps+1 {
		t.Fatalf("degradation table has %d rows, want %d", tabs[0].Rows(), steps+1)
	}
	// The ramp's first step aims at 1-step, so its row lands within one
	// step of it: a ramp that skipped 1-step would kill twice the frames
	// of every later step on its first.
	var buf bytes.Buffer
	if err := tabs[0].WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(rows[0], "capacity")
	first, err := strconv.ParseFloat(rows[2][col], 64) // rows[1] is the baseline
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(first-(1-opt.Step)) > opt.Step {
		t.Fatalf("first ramp step reached capacity %.4f, want within %v of %v", first, opt.Step, 1-opt.Step)
	}
}

func TestStudyRejectsBadConfig(t *testing.T) {
	opt := quickOpts()
	opt.Config.PolicyName = "NOPE"
	if _, _, err := runStudy(opt); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Fatalf("bad policy not rejected: %v", err)
	}
	for _, bad := range []struct {
		name         string
		step, target float64
	}{
		{"zero step", 0, 0.5},
		{"NaN step", math.NaN(), 0.5},
		{"NaN target", 0.1, math.NaN()},
		{"sub-byte step", 1e-9, 0.5},
	} {
		opt = quickOpts()
		opt.Step, opt.Target = bad.step, bad.target
		if _, _, err := runStudy(opt); err == nil {
			t.Fatalf("%s accepted", bad.name)
		}
	}
	opt = quickOpts()
	opt.SpecPath = "does-not-exist.json"
	if _, _, err := runStudy(opt); err == nil {
		t.Fatal("missing spec accepted")
	}
}
