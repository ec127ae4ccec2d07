// Command cpthsweep reproduces the compression-threshold studies:
//
//	(default)    Fig. 6 and Fig. 7 — LLC hit rate and NVM bytes written
//	             versus CPth for CA and CA_RWR, normalised to BH, plus
//	             the adaptive CP_SD reference line.
//	-fig8        Fig. 8 — fraction of epochs each CPth value is optimal,
//	             across NVM capacities (8a) and across mixes (8b).
//	-epochsweep  §IV-C — set-dueling epoch-size sensitivity.
//
// All modes render through the shared report sink; -csv and -json select
// the machine-readable encodings.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	cf := cliutil.BindConfig(flag.CommandLine, "mixes", "scale", "sets")
	warmup := flag.Uint64("warmup", 2_000_000, "warm-up cycles")
	measure := flag.Uint64("measure", 8_000_000, "measured cycles")
	fig8 := flag.Bool("fig8", false, "produce the Fig. 8 optimal-CPth distributions")
	epochSweep := flag.Bool("epochsweep", false, "produce the epoch-size sensitivity table")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	cfg, err := cf.Config(core.DefaultConfig())
	if err != nil {
		fatal(err)
	}

	var rep *report.Report
	var results []cliutil.TaskResult // Fig. 8 and the epoch sweep fail whole
	switch {
	case *fig8:
		rep, err = runFig8(cfg, cf.Mixes)
	case *epochSweep:
		rep, err = runEpochSweep(cfg, cf.Mixes, *warmup, *measure)
	default:
		rep, results, err = runFig67(cfg, cf.Mixes, *warmup, *measure)
	}
	if err != nil {
		fatal(err)
	}
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
	cliutil.ExitIfFailed("cpthsweep", results)
}

func runFig67(cfg core.Config, mixes []int, warmup, measure uint64) (*report.Report, []cliutil.TaskResult, error) {
	sweep, results, err := experiments.Fig6And7CPthSweep(cfg, mixes, warmup, measure)
	if err != nil {
		return nil, nil, err
	}
	rep := report.NewReport("Fig. 6 / Fig. 7 — normalised to BH")
	rep.AddField("cpsd_hits_vs_bh", sweep.NormalizedHitRate(sweep.CPSDHits))
	rep.AddField("cpsd_bytes_vs_bh", sweep.NormalizedBytes(sweep.CPSDBytes))
	tab := report.New("CPth sweep (CA and CA_RWR vs BH)",
		"cpth", "ca_hits", "ca_rwr_hits", "ca_bytes", "ca_rwr_bytes")
	for _, r := range sweep.Rows {
		tab.AddRow(r.CPth,
			sweep.NormalizedHitRate(r.CAHits),
			sweep.NormalizedHitRate(r.CARWRHits),
			sweep.NormalizedBytes(r.CANVMBytes),
			sweep.NormalizedBytes(r.CARWRNVMBytes))
	}
	rep.AddTable(tab)
	cliutil.AddRunSummary(rep, results)
	return rep, results, nil
}

func runFig8(cfg core.Config, mixes []int) (*report.Report, error) {
	res, err := experiments.Fig8OptimalCPth(cfg, mixes, []float64{1.0, 0.9, 0.8, 0.7, 0.6, 0.5}, 3, 16)
	if err != nil {
		return nil, err
	}
	rep := report.NewReport("Fig. 8 — fraction of epochs each CPth is optimal")
	cols := make([]string, 0, len(res.Candidates)+1)
	cols = append(cols, "capacity")
	for _, c := range res.Candidates {
		cols = append(cols, fmt.Sprintf("cpth_%d", c))
	}
	byCap := report.New("Fig. 8a — by NVM capacity", cols...)
	for i, capacity := range res.Capacities {
		row := []interface{}{fmt.Sprintf("%.0f%%", capacity*100)}
		for _, f := range res.ByCapacity[i] {
			row = append(row, f)
		}
		byCap.AddRow(row...)
	}
	rep.AddTable(byCap)

	cols[0] = "mix"
	byMix := report.New("Fig. 8b — per mix at 100% capacity", cols...)
	for i, m := range res.Mixes {
		row := []interface{}{m + 1}
		for _, f := range res.ByMix[i] {
			row = append(row, f)
		}
		byMix.AddRow(row...)
	}
	rep.AddTable(byMix)
	return rep, nil
}

func runEpochSweep(cfg core.Config, mixes []int, warmup, measure uint64) (*report.Report, error) {
	sizes := []uint64{500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000}
	rows, err := experiments.EpochSizeSweep(cfg, mixes, sizes, warmup, measure)
	if err != nil {
		return nil, err
	}
	rep := report.NewReport("Set-dueling epoch-size sensitivity (§IV-C; paper picks 2M)")
	tab := report.New("hit rate by epoch size", "epoch_cycles", "hit_rate")
	for _, r := range rows {
		tab.AddRow(r.EpochCycles, r.HitRate)
	}
	rep.AddTable(tab)
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cpthsweep:", err)
	os.Exit(1)
}
