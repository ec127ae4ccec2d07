// Command tournament contests the policy league: every selected policy —
// the paper's set-dueling baseline, the RRIP-family substrate and the
// N-way tournament meta-policies — runs the aging forecast across the
// selected mixes, and the standings are ranked on the lifetime axis with
// the young-cache IPC axis alongside, through the shared report sink.
// A user-defined bracket (the same JSON object `simd` jobs carry in the
// config's "tournament" field) can be substituted for the TOURNAMENT
// entry's default bracket.
//
// Examples:
//
//	tournament                         # default league, quick mixes
//	tournament -mixes all              # full Table V workload
//	tournament -policies SRRIP,BRRIP,DRRIP,CP_SD
//	tournament -bracket bracket.json   # custom TOURNAMENT bracket
//	tournament -quick                  # CI smoke preset (small, fast)
//	tournament -json | jq '.tables[0]'
package main

import (
	"bytes"
	"encoding/json"
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
	policiesFlag := flag.String("policies", "league", `"league" for the default standings, or comma-separated policies: `+cliutil.PolicyNames())
	mixesFlag := flag.String("mixes", "1,4", `comma-separated mix numbers (1-10) or "all"`)
	bracketPath := flag.String("bracket", "", "JSON file with a tournament bracket for the TOURNAMENT entry")
	sets := flag.Int("sets", cfg.LLCSets, "LLC sets")
	scale := flag.Float64("scale", cfg.Scale, "workload footprint scale")
	mean := flag.Float64("mean", cfg.EnduranceMean, "endurance mean writes")
	cv := flag.Float64("cv", cfg.EnduranceCV, "endurance coefficient of variation")
	cpth := flag.Int("cpth", cfg.CPth, "fixed compression threshold for non-dueling policies")
	phase := flag.Uint64("phase", 10_000_000, "measured cycles per forecast phase")
	warm := flag.Uint64("warmup", 2_000_000, "warm-up cycles per phase")
	step := flag.Float64("step", 0.05, "capacity drop per prediction phase")
	quick := flag.Bool("quick", false, "CI smoke preset: small cache, short phases, accelerated endurance, mix 1 only")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	cfg.LLCSets = *sets
	cfg.Scale = *scale
	cfg.EnduranceMean = *mean
	cfg.EnduranceCV = *cv
	cfg.CPth = *cpth

	fcfg := forecast.DefaultConfig()
	fcfg.PhaseCycles = *phase
	fcfg.WarmupCycles = *warm
	fcfg.CapacityStep = *step

	mixArg := *mixesFlag
	if *quick {
		q := core.QuickConfig()
		cfg.LLCSets = q.LLCSets
		cfg.Scale = q.Scale
		cfg.L2SizeKB = q.L2SizeKB
		cfg.EpochCycles = q.EpochCycles
		cfg.EnduranceMean = 60_000
		cfg.EnduranceCV = 0.3
		fcfg.PhaseCycles = 300_000
		fcfg.WarmupCycles = 100_000
		fcfg.CapacityStep = 0.1
		fcfg.MaxPhases = 8
		if mixArg == "1,4" {
			mixArg = "1"
		}
	}

	if *bracketPath != "" {
		tc, err := loadBracket(*bracketPath)
		if err != nil {
			fatal(err)
		}
		cfg.Tournament = tc
	}
	names := experiments.DefaultLeague()
	if *policiesFlag != "league" {
		names = nil
		for _, tok := range strings.Split(*policiesFlag, ",") {
			if tok = strings.TrimSpace(tok); tok != "" {
				names = append(names, tok)
			}
		}
	}
	specs, err := experiments.LeagueSpecs(names)
	if err != nil {
		fatal(err)
	}
	mixes, err := cliutil.ParseMixes(mixArg)
	if err != nil {
		fatal(err)
	}
	// Every league entry must validate before any cell runs, so a bad
	// bracket or threshold fails in milliseconds, not mid-league.
	for _, name := range names {
		c := cfg
		c.PolicyName = name
		if err := c.Validate(); err != nil {
			fatal(err)
		}
	}

	fs, results, err := experiments.ForecastComparison(cfg, specs, mixes, fcfg)
	if err != nil {
		fatal(err)
	}
	rows := experiments.RankLeague(fs)

	rep := report.NewReport("tournament: policy league standings")
	standings := report.New("standings (lifetime to 50% NVM capacity, young-cache IPC)",
		"rank", "policy", "lifetime_months", "censored_mixes", "ipc_t0", "norm_ipc")
	for _, r := range rows {
		standings.AddRow(r.Rank, r.Policy, lifeStr(r.MeanLifetimeMonths), r.CensoredMixes,
			fmt.Sprintf("%.4f", r.InitialIPC), fmt.Sprintf("%.4f", r.NormIPC))
	}
	rep.AddTable(standings)

	// Per-mix league matrices: the lifetime and IPC axes cell by cell.
	lifeCols := []string{"policy"}
	for _, m := range mixes {
		lifeCols = append(lifeCols, fmt.Sprintf("mix_%d", m+1))
	}
	lifeTab := report.New("lifetime months by mix", lifeCols...)
	ipcTab := report.New("young-cache IPC by mix", lifeCols...)
	for _, pf := range fs {
		lifeRow := []interface{}{pf.Label}
		ipcRow := []interface{}{pf.Label}
		for mi := range mixes {
			if mi >= len(pf.PerMix) {
				lifeRow = append(lifeRow, "-")
				ipcRow = append(ipcRow, "-")
				continue
			}
			res := pf.PerMix[mi]
			lifeRow = append(lifeRow, lifeStr(res.LifetimeMonths()))
			ipc := 0.0
			if len(res.Points) > 0 {
				ipc = res.Points[0].MeanIPC
			}
			ipcRow = append(ipcRow, fmt.Sprintf("%.4f", ipc))
		}
		lifeTab.AddRow(lifeRow...)
		ipcTab.AddRow(ipcRow...)
	}
	rep.AddTable(lifeTab)
	rep.AddTable(ipcTab)

	// Document the bracket the TOURNAMENT entry contested with.
	for _, name := range names {
		if name != "TOURNAMENT" {
			continue
		}
		tc := cfg.Tournament
		if tc == nil {
			tc = core.DefaultTournament()
		}
		brk := report.New("TOURNAMENT bracket", "slot", "policy", "cpth")
		for i, cand := range tc.Candidates {
			cpthVal := cand.CPth
			if cpthVal == 0 {
				cpthVal = cfg.CPth
			}
			brk.AddRow(i, cand.Policy, cpthVal)
		}
		rep.AddTable(brk)
		break
	}

	cliutil.AddRunSummary(rep, results)
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
}

func lifeStr(months float64) string {
	if math.IsInf(months, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.4g", months)
}

// loadBracket strict-decodes a tournament bracket document, the same
// object a simd job config carries in its "tournament" field.
func loadBracket(path string) (*core.TournamentConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var tc core.TournamentConfig
	if err := dec.Decode(&tc); err != nil {
		return nil, fmt.Errorf("bracket %s: %w", path, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("bracket %s: trailing data after JSON document", path)
	}
	return &tc, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tournament:", err)
	os.Exit(1)
}
