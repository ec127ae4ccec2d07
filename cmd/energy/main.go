// Command energy compares the LLC energy of the insertion policies on the
// same workload: per-policy dynamic (SRAM/NVM/tag) and leakage energy,
// total relative to the BH baseline, and energy per kilo-instruction.
// NVM-conservative policies avoid expensive NVM writes — the motivation
// behind TAP's reported 25% LLC energy reduction.
//
//	energy -mixes 1,4,6,8
//	energy -csv > energy.csv
//	energy -json | jq '.tables[0].rows'
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	cf := cliutil.BindConfig(flag.CommandLine, "mixes", "scale")
	warmup := flag.Uint64("warmup", 2_000_000, "warm-up cycles")
	measure := flag.Uint64("measure", 8_000_000, "measured cycles")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	cfg, err := cf.Config(core.DefaultConfig())
	if err != nil {
		fatal(err)
	}

	policies := []string{"BH", "BH_CP", "LHybrid", "TAP", "CA_RWR", "CP_SD", "CP_SD_Th"}
	rows, results := experiments.EnergyComparison(cfg, policies, cf.Mixes, *warmup, *measure)

	rep := report.NewReport("LLC energy per policy (mJ per measurement window)")
	tab := report.New("energy breakdown",
		"policy", "sram_dyn", "nvm_dyn", "tag", "sram_leak", "nvm_leak", "total", "vs_bh", "uj_per_ki", "ipc")
	for _, r := range rows {
		b := r.Breakdown
		var vsBH any = r.RelativeToBH
		if math.IsNaN(r.RelativeToBH) {
			vsBH = "-" // BH failed: no baseline
		}
		tab.AddRow(r.Policy, b.SRAMDynamic, b.NVMDynamic, b.TagDynamic,
			b.SRAMLeak, b.NVMLeak, b.Total(), vsBH, r.PerKI*1e3, r.MeanIPC)
	}
	rep.AddTable(tab)
	cliutil.AddRunSummary(rep, results)
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
	cliutil.ExitIfFailed("energy", results)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "energy:", err)
	os.Exit(1)
}
