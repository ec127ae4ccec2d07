// Command forecast reproduces the lifetime/performance evolution figures
// (Fig. 1, Fig. 10a/b/c, Fig. 11a/b/c): for each selected policy it runs
// the aging forecast procedure across the selected mixes and prints the
// lifetime to 50% NVM capacity plus the IPC trajectory (normalised to the
// 16-way SRAM upper bound), through the shared report sink.
//
// Examples:
//
//	forecast                         # Fig 10a curve set, quick mixes
//	forecast -mixes all              # full Table V workload
//	forecast -sram 3 -nvm 13         # Fig 10b
//	forecast -cv 0.25                # Fig 10c
//	forecast -l2kb 256               # Fig 11a
//	forecast -nvmlat 1.5             # Fig 11b
//	forecast -nvm 10                 # Fig 11c equal-storage point
//	forecast -json | jq '.tables[0]'
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/forecast"
	"repro/internal/report"
)

func main() {
	cfg := core.DefaultConfig()
	policies := flag.String("policies", "standard", `"standard", "core" or comma-separated curve labels: `+strings.Join(experiments.ForecastLabels(), ", "))
	mixesFlag := flag.String("mixes", "1,4", fmt.Sprintf(`comma-separated mix numbers (1-%d) or "all"`, len(core.AllMixes())))
	sram := flag.Int("sram", cfg.SRAMWays, "SRAM ways")
	nvmWays := flag.Int("nvm", cfg.NVMWays, "NVM ways")
	cv := flag.Float64("cv", cfg.EnduranceCV, "endurance coefficient of variation")
	mean := flag.Float64("mean", cfg.EnduranceMean, "endurance mean writes")
	l2kb := flag.Int("l2kb", cfg.L2SizeKB, "L2 size in KB")
	nvmlat := flag.Float64("nvmlat", cfg.NVMLatencyFactor, "NVM data-array latency factor")
	scale := flag.Float64("scale", cfg.Scale, "workload footprint scale")
	sets := flag.Int("sets", cfg.LLCSets, "LLC sets")
	phase := flag.Uint64("phase", 10_000_000, "measured cycles per forecast phase")
	warm := flag.Uint64("warmup", 2_000_000, "warm-up cycles per phase")
	step := flag.Float64("step", 0.025, "capacity drop per prediction phase")
	coloring := flag.String("coloring", "", `set coloring: "xor:mask=N", "rotate:interval=N,step=N", "wear:interval=N,pairs=N" or "off"`)
	analyticFast := flag.Bool("analytic", false, "use the analytic fast path: one calibration window per cell instead of the full forecast loop (-warmup sizes the warm-up, -phase the calibration window)")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	cfg.SRAMWays, cfg.NVMWays = *sram, *nvmWays
	cfg.EnduranceCV = *cv
	cfg.EnduranceMean = *mean
	cfg.L2SizeKB = *l2kb
	cfg.NVMLatencyFactor = *nvmlat
	cfg.Scale = *scale
	cfg.LLCSets = *sets
	if err := cliutil.ApplyColoring(&cfg, *coloring); err != nil {
		fatal(err)
	}

	specs, err := experiments.SelectForecastSpecs(*policies)
	if err != nil {
		fatal(err)
	}
	mixes, err := cliutil.ParseMixes(*mixesFlag)
	if err != nil {
		fatal(err)
	}

	fcfg := forecast.DefaultConfig()
	fcfg.PhaseCycles = *phase
	fcfg.WarmupCycles = *warm
	fcfg.CapacityStep = *step

	var fs []experiments.PolicyForecast
	var results []cliutil.TaskResult
	if *analyticFast {
		fs, results, err = experiments.AnalyticComparison(cfg, specs, mixes, *warm, *phase)
	} else {
		fs, results, err = experiments.ForecastComparison(cfg, specs, mixes, fcfg)
	}
	if err != nil {
		fatal(err)
	}

	// Normalise to the SRAM16 upper bound if it was run.
	bound := 0.0
	if up, ok := experiments.FindSpec(fs, "SRAM16"); ok {
		bound = up.InitialIPC
	}

	// Exact lifetime × IPC Pareto frontier over the curve set (zero
	// margins — these are measured numbers, not estimates; the sweep
	// planner applies error margins to the same helper).
	pts := make([]experiments.ParetoPoint, len(fs))
	for i, pf := range fs {
		pts[i] = experiments.ParetoPoint{Lifetime: pf.MeanLifetimeMonths, IPC: pf.InitialIPC}
	}
	frontier := experiments.ParetoFrontier(pts)

	title := "forecast: lifetime and IPC evolution"
	if *analyticFast {
		title = "forecast (analytic fast path): lifetime and IPC estimates"
	}
	rep := report.NewReport(title)
	summary := report.New("lifetime to 50% NVM capacity",
		"policy", "ipc_t0", "norm_ipc", "lifetime_months", "censored_mixes", "pareto")
	for i, pf := range fs {
		life := "inf"
		if !math.IsInf(pf.MeanLifetimeMonths, 1) {
			life = fmt.Sprintf("%.1f", pf.MeanLifetimeMonths)
		}
		norm := "-"
		if bound > 0 {
			norm = fmt.Sprintf("%.4f", pf.InitialIPC/bound)
		}
		summary.AddRow(pf.Label, pf.InitialIPC, norm, life, pf.CensoredMixes, frontier[i])
	}
	rep.AddTable(summary)

	// IPC trajectory on a monthly grid up to the slowest-aging finite curve.
	maxMo := 0.0
	for _, pf := range fs {
		if !math.IsInf(pf.MeanLifetimeMonths, 1) && pf.MeanLifetimeMonths > maxMo {
			maxMo = pf.MeanLifetimeMonths
		}
	}
	if maxMo > 0 {
		const points = 8
		cols := []string{"policy"}
		for i := 0; i <= points; i++ {
			// %.3g keeps sub-month horizons distinguishable on
			// accelerated-endurance runs where %.1f would print all zeros.
			cols = append(cols, fmt.Sprintf("month_%.3g", maxMo*float64(i)/points))
		}
		traj := report.New("IPC vs time (normalised)", cols...)
		for _, pf := range fs {
			if pf.Label == "SRAM16" || pf.Label == "SRAM4" {
				continue
			}
			row := []interface{}{pf.Label}
			for i := 0; i <= points; i++ {
				t := maxMo * float64(i) / points * forecast.SecondsPerMonth
				v := pf.IPCAt(t)
				if bound > 0 {
					v /= bound
				}
				row = append(row, v)
			}
			traj.AddRow(row...)
		}
		rep.AddTable(traj)
	}
	cliutil.AddRunSummary(rep, results)
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "forecast:", err)
	os.Exit(1)
}
