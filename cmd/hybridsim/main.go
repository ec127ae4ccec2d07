// Command hybridsim runs a single hybrid-LLC simulation window with any
// insertion policy and prints the performance and NVM-write summary. All
// counters come from the system's metrics registry and are rendered
// through the shared report sink (text, CSV or JSON).
//
// Examples:
//
//	hybridsim -policy CP_SD -mix 5
//	hybridsim -policy CA_RWR -cpth 40 -measure 20000000
//	hybridsim -policy CP_SD_Th -th 8 -capacity 0.8
//	hybridsim -config sweep-point.json            # full config from JSON
//	hybridsim -trace mix4 -mix 4                  # replay tracegen -mix output
//	hybridsim -json | jq .fields.mean_ipc
//	hybridsim -epochs -csv > epochs.csv
//
// With -config the file (core.Config JSON, unknown fields rejected) is
// loaded first and explicitly set flags override it. With -trace the
// per-core stimulus is replayed from tracegen's prefix.coreN.trc files
// (gzip-compressed traces are detected transparently) instead of being
// generated live; mix, seed and scale must match the recording.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/report"
)

func main() {
	configPath := flag.String("config", "", "load a core.Config JSON file (flags set explicitly still override)")
	tracePrefix := flag.String("trace", "", "replay recorded traces from prefix.coreN.trc instead of live generation")
	cf := cliutil.BindConfig(flag.CommandLine, "policy", "mix", "seed", "scale", "sets", "sram", "nvm", "l2kb",
		"cpth", "th", "tw", "cv", "nvmlat", "prefetch", "rrip", "checkevery", "coloring")
	capacity := flag.Float64("capacity", 1.0, "pre-age the NVM part to this capacity fraction")
	warmup := flag.Uint64("warmup", 2_000_000, "warm-up cycles")
	measure := flag.Uint64("measure", 10_000_000, "measured cycles")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	csvOut := flag.Bool("csv", false, "emit the report as CSV")
	epochs := flag.Bool("epochs", false, "include the per-epoch series (IPC, LLC traffic, NVM bytes, CPth)")
	allMetrics := flag.Bool("metrics", false, "include the full registry delta of the measured window")
	flag.Parse()

	// Negated, so that NaN, which fails every comparison, is refused.
	if !(*capacity > 0 && *capacity <= 1) {
		fatal(fmt.Errorf("-capacity %v outside (0, 1]", *capacity))
	}

	cfg := core.DefaultConfig()
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		if err := core.UnmarshalStrict(data, &cfg); err != nil {
			fatal(fmt.Errorf("%s: config: %w", *configPath, err))
		}
	}
	// Flags set on the command line win over the config file; with no
	// -config this is the classic flags-over-defaults behaviour.
	cfg, err := cf.Config(cfg)
	if err != nil {
		fatal(err)
	}

	var sys *hier.System
	if *tracePrefix != "" {
		progs, perr := cliutil.LoadMixPrograms(*tracePrefix, cfg.MixID, cfg.Seed, cfg.Scale)
		if perr != nil {
			fatal(perr)
		}
		sys, err = cfg.BuildFromPrograms(progs)
	} else {
		sys, err = cfg.Build()
	}
	if err != nil {
		fatal(err)
	}
	res, err := core.RunWindow(context.Background(), sys, *capacity, *warmup, *measure, core.RunHooks{})
	if err != nil {
		fatal(err)
	}

	opt := cliutil.RunReportOptions{CPthWinner: res.CPthWinner, Metrics: *allMetrics}
	if *epochs {
		opt.Epochs = res.Epochs
	}
	rep := cliutil.RunReport(cfg, res.Summary, opt)
	var checkErr error
	if chk, ok := sys.AccessProbe().(*check.Checker); ok {
		chk.ReportInto(rep)
		checkErr = chk.Err()
	}
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
	if checkErr != nil {
		fatal(checkErr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hybridsim:", err)
	os.Exit(1)
}
