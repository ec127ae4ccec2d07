package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cliutil"
)

func TestPerAppStudySurvivesInjectedPanic(t *testing.T) {
	t.Setenv(cliutil.PanicTaskEnv, "app=xz17")
	cfg := quickBase()
	cfg.Scale = 0.05
	rows, results, err := PerAppStudy(cfg, "CA", 50_000, 200_000)
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

// TestParallelDeterminism: the parallel harness must produce identical
// results to a repeated run — each simulation is self-contained.
func TestParallelDeterminism(t *testing.T) {
	run := func() CPthSweep {
		s, _, err := Fig6And7CPthSweep(quickBase(), []int{0}, 150_000, 500_000)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a.BHHits != b.BHHits || a.CPSDHits != b.CPSDHits || a.CPSDBytes != b.CPSDBytes {
		t.Fatal("parallel sweep not reproducible")
	}
	for i := range a.Rows {
		if a.Rows[i] != b.Rows[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, a.Rows[i], b.Rows[i])
		}
	}
}

// TestParallelScalingBench: job-level fan-out is the parallel path, and
// it must be exact at any width. The CPth sweep pinned to one proc (the
// pool then runs one task at a time, in order) is the serial baseline;
// the same sweep at 2 and 4 procs must reproduce it bit for bit.
func TestParallelScalingBench(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var base CPthSweep
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		s, results, err := Fig6And7CPthSweep(quickBase(), []int{0}, 100_000, 300_000)
		if err != nil {
			t.Fatal(err)
		}
		if err := cliutil.ErrOf(results); err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if len(s.Rows) == 0 || s.BHHits == 0 {
			t.Fatalf("procs=%d: empty sweep %+v", procs, s)
		}
		if procs == 1 {
			base = s
			continue
		}
		if !reflect.DeepEqual(s, base) {
			t.Fatalf("procs=%d: sweep differs from the serial baseline:\n got %+v\nwant %+v", procs, s, base)
		}
	}
}
