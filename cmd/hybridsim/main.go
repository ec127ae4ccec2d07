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
	def := core.DefaultConfig()
	configPath := flag.String("config", "", "load a core.Config JSON file (flags set explicitly still override)")
	tracePrefix := flag.String("trace", "", "replay recorded traces from prefix.coreN.trc instead of live generation")
	policyName := flag.String("policy", def.PolicyName, "insertion policy: "+cliutil.PolicyNames())
	mix := flag.Int("mix", 1, fmt.Sprintf("mix number (1-%d: Table V plus skewed-traffic scenarios)", len(core.AllMixes())))
	seed := flag.Uint64("seed", def.Seed, "deterministic seed")
	scale := flag.Float64("scale", def.Scale, "workload footprint scale")
	sets := flag.Int("sets", def.LLCSets, "LLC sets")
	sram := flag.Int("sram", def.SRAMWays, "SRAM ways")
	nvmWays := flag.Int("nvm", def.NVMWays, "NVM ways")
	l2kb := flag.Int("l2kb", def.L2SizeKB, "L2 size in KB")
	cpth := flag.Int("cpth", def.CPth, "fixed compression threshold for CA/CA_RWR")
	th := flag.Float64("th", def.Th, "CP_SD_Th hit-sacrifice percentage")
	tw := flag.Float64("tw", def.Tw, "CP_SD_Th write-reduction percentage")
	cv := flag.Float64("cv", def.EnduranceCV, "endurance coefficient of variation")
	nvmlat := flag.Float64("nvmlat", def.NVMLatencyFactor, "NVM data-array latency factor")
	capacity := flag.Float64("capacity", 1.0, "pre-age the NVM part to this capacity fraction")
	warmup := flag.Uint64("warmup", 2_000_000, "warm-up cycles")
	measure := flag.Uint64("measure", 10_000_000, "measured cycles")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	csvOut := flag.Bool("csv", false, "emit the report as CSV")
	epochs := flag.Bool("epochs", false, "include the per-epoch series (IPC, LLC traffic, NVM bytes, CPth)")
	allMetrics := flag.Bool("metrics", false, "include the full registry delta of the measured window")
	prefetch := flag.Bool("prefetch", false, "enable the L2 stride prefetcher")
	rrip := flag.Bool("rrip", false, "use fit-RRIP NVM replacement instead of fit-LRU")
	checkEvery := flag.Uint64("checkevery", 0, "run the invariant checker every N LLC accesses (0 disables)")
	coloring := flag.String("coloring", "", cliutil.ColoringUsage)
	flag.Parse()

	// Negated, so that NaN, which fails every comparison, is refused.
	if !(*capacity > 0 && *capacity <= 1) {
		fatal(fmt.Errorf("-capacity %v outside (0, 1]", *capacity))
	}

	cfg := def
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			fatal(err)
		}
		if err := core.UnmarshalStrict(data, &cfg); err != nil {
			fatal(fmt.Errorf("%s: config: %w", *configPath, err))
		}
	}

	// Explicitly set flags win over the config file; with no -config this
	// reduces to the classic flags-over-defaults behaviour.
	coloringSet := false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "policy":
			cfg.PolicyName = *policyName
		case "mix":
			cfg.MixID = *mix - 1
		case "seed":
			cfg.Seed = *seed
		case "scale":
			cfg.Scale = *scale
		case "sets":
			cfg.LLCSets = *sets
		case "sram":
			cfg.SRAMWays = *sram
		case "nvm":
			cfg.NVMWays = *nvmWays
		case "l2kb":
			cfg.L2SizeKB = *l2kb
		case "cpth":
			cfg.CPth = *cpth
		case "th":
			cfg.Th = *th
		case "tw":
			cfg.Tw = *tw
		case "cv":
			cfg.EnduranceCV = *cv
		case "nvmlat":
			cfg.NVMLatencyFactor = *nvmlat
		case "prefetch":
			cfg.EnablePrefetcher = *prefetch
		case "rrip":
			cfg.NVMRRIP = *rrip
		case "checkevery":
			cfg.CheckEvery = *checkEvery
		case "coloring":
			coloringSet = true
		}
	})
	// An explicit -coloring flag replaces (or with "off", clears) any
	// coloring block loaded from -config; ApplyColoring validates.
	if coloringSet {
		if err := cliutil.ApplyColoring(&cfg, *coloring); err != nil {
			fatal(err)
		}
	}
	if err := cfg.Validate(); err != nil {
		fatal(err)
	}

	var sys *hier.System
	var err error
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
