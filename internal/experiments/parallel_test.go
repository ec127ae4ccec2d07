package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/dueling"
)

func TestPerAppStudySurvivesInjectedPanic(t *testing.T) {
	t.Setenv(cliutil.PanicTaskEnv, "app=xz17")
	cfg := quickBase()
	cfg.Scale = 0.05
	cfg.PolicyName = "CA"
	rows, results, err := PerAppStudy(cfg, 50_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 19 {
		t.Fatalf("%d rows survived, want 19", len(rows))
	}
	for _, r := range rows {
		if r.App == "xz17" {
			t.Fatal("crashed task produced a row")
		}
	}
	fails := cliutil.Failures(results)
	if len(fails) != 1 || fails[0].Name != "app=xz17" || !fails[0].Panicked {
		t.Fatalf("failures: %+v", fails)
	}
}

func TestSelectForecastSpecs(t *testing.T) {
	if specs, err := SelectForecastSpecs("standard"); err != nil || len(specs) != 9 {
		t.Fatalf("standard: %d specs, err=%v", len(specs), err)
	}
	if specs, err := SelectForecastSpecs("core"); err != nil || len(specs) != 4 {
		t.Fatalf("core: %d specs, err=%v", len(specs), err)
	}
	specs, err := SelectForecastSpecs("BH, CP_SD")
	if err != nil || len(specs) != 2 || specs[0].Label != "BH" || specs[1].Label != "CP_SD" {
		t.Fatalf("list: %+v err=%v", specs, err)
	}
	if _, err := SelectForecastSpecs("NOPE"); err == nil {
		t.Error("unknown curve accepted")
	}
	if _, err := SelectForecastSpecs(""); err == nil {
		t.Error("empty selector accepted")
	}
}

// TestFig67FailureRules pins the grid's failure rules on Fig. 6/7: a
// panic in one CA cell drops exactly that CPth row and is reported; a
// panic in a cell of the BH reference line fails the sweep.
func TestFig67FailureRules(t *testing.T) {
	mixes := []int{0, 3}
	t.Setenv(cliutil.PanicTaskEnv, "CA/cpth=37/mix=4")
	sweep, results, err := Fig6And7CPthSweep(quickBase(), mixes, 50_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Rows) != len(dueling.DefaultCandidates)-1 {
		t.Fatalf("%d rows survived, want %d", len(sweep.Rows), len(dueling.DefaultCandidates)-1)
	}
	for _, r := range sweep.Rows {
		if r.CPth == 37 {
			t.Fatal("the row of the crashed CA cell survived")
		}
	}
	if n := len(results); n != (2+2*len(dueling.DefaultCandidates))*len(mixes) {
		t.Fatalf("%d task records, want one per cell", n)
	}
	fails := cliutil.Failures(results)
	if len(fails) != 1 || fails[0].Name != "CA/cpth=37/mix=4" || !fails[0].Panicked {
		t.Fatalf("failures: %+v", fails)
	}

	t.Setenv(cliutil.PanicTaskEnv, "BH/mix=1")
	if _, _, err := Fig6And7CPthSweep(quickBase(), mixes, 50_000, 200_000); err == nil {
		t.Fatal("a failed BH reference cell did not fail the sweep")
	}
}

// TestParallelScalingBench: cell-level fan-out is the parallel path,
// and it must be exact at any width. Each grid driver pinned to one
// proc (the pool then runs one cell at a time, in order) is the serial
// baseline; the same driver at 2 and 4 procs must reproduce it bit for
// bit. Two mixes make the mix axis fan out too.
func TestParallelScalingBench(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	mixes := []int{0, 3}
	const warmup, measure = 100_000, 300_000
	drivers := []struct {
		name string
		run  func() (any, []cliutil.TaskResult, error)
	}{
		{"Fig6And7CPthSweep", func() (any, []cliutil.TaskResult, error) {
			s, results, err := Fig6And7CPthSweep(quickBase(), mixes, warmup, measure)
			return s, results, err
		}},
		{"Fig9ThTradeoff", func() (any, []cliutil.TaskResult, error) {
			pts, results, err := Fig9ThTradeoff(quickBase(), mixes, []float64{0, 8}, []float64{1.0, 0.8}, warmup, measure)
			return pts, results, err
		}},
		{"EnergyComparison", func() (any, []cliutil.TaskResult, error) {
			rows, results := EnergyComparison(quickBase(), []string{"BH", "LHybrid", "CP_SD"}, mixes, warmup, measure)
			return rows, results, nil
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			var base any
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				v, results, err := d.run()
				if err == nil {
					err = cliutil.ErrOf(results)
				}
				if err != nil {
					t.Fatalf("procs=%d: %v", procs, err)
				}
				if procs == 1 {
					base = v
					continue
				}
				if !reflect.DeepEqual(v, base) {
					t.Fatalf("procs=%d: result differs from the serial baseline:\n got %+v\nwant %+v", procs, v, base)
				}
			}
		})
	}
}
