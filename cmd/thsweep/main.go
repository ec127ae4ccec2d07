// Command thsweep reproduces Fig. 9: the CP_SD_Th rule's trade-off between
// LLC hits and NVM bytes written, sweeping Th at fixed Tw across NVM
// capacity operating points, all normalised to BH at 100% capacity.
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
	cf := cliutil.BindConfig(flag.CommandLine, "mixes", "scale", "tw")
	warmup := flag.Uint64("warmup", 2_000_000, "warm-up cycles")
	measure := flag.Uint64("measure", 8_000_000, "measured cycles")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	cfg, err := cf.Config(core.DefaultConfig())
	if err != nil {
		fatal(err)
	}

	ths := []float64{0, 2, 4, 6, 8}
	caps := []float64{1.0, 0.9, 0.8}
	pts, results, err := experiments.Fig9ThTradeoff(cfg, cf.Mixes, ths, caps, *warmup, *measure)
	if err != nil {
		fatal(err)
	}
	rep := report.NewReport(fmt.Sprintf("Fig. 9 — CP_SD_Th trade-off (Tw = %g%%), normalised to BH @ 100%%", cfg.Tw))
	tab := report.New("hits vs NVM bytes", "capacity", "th", "hits", "nvm_bytes")
	for _, p := range pts {
		tab.AddRow(fmt.Sprintf("%.0f%%", p.Capacity*100), fmt.Sprintf("%g", p.Th), p.Hits, p.NVMBytes)
	}
	rep.AddTable(tab)
	cliutil.AddRunSummary(rep, results)
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
	cliutil.ExitIfFailed("thsweep", results)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thsweep:", err)
	os.Exit(1)
}
