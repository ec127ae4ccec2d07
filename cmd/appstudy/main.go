// Command appstudy runs every SPEC application model homogeneously (four
// copies, one per core) under a chosen insertion policy, exposing the
// per-benchmark behaviour behind §IV-A: incompressible applications (xz17,
// milc06) send nothing to the NVM part under compression-aware policies,
// fully compressible ones (GemsFDTD06, zeusmp06) send almost everything.
//
//	appstudy -policy CA -cpth 37     # reproduce the §IV-A pathology
//	appstudy -policy CP_SD           # show CP_SD balancing it
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
	cfg := core.QuickConfig()
	policyName := flag.String("policy", cfg.PolicyName, "insertion policy: "+cliutil.PolicyNames())
	cpth := flag.Int("cpth", cfg.CPth, "fixed threshold for CA/CA_RWR")
	warmup := flag.Uint64("warmup", 1_000_000, "warm-up cycles")
	measure := flag.Uint64("measure", 4_000_000, "measured cycles")
	csvOut := flag.Bool("csv", false, "emit CSV")
	flag.Parse()

	cfg.CPth = *cpth
	probe := cfg
	probe.PolicyName = *policyName
	if err := probe.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "appstudy:", err)
		os.Exit(1)
	}
	rows, results, err := experiments.PerAppStudy(cfg, *policyName, *warmup, *measure)
	if err != nil {
		fmt.Fprintln(os.Stderr, "appstudy:", err)
		os.Exit(1)
	}

	tab := report.New(fmt.Sprintf("per-application behaviour under %s", *policyName),
		"app", "hit rate", "IPC", "NVM share", "compressible", "NVM bytes")
	for _, r := range rows {
		tab.AddRow(r.App, r.HitRate, r.MeanIPC, r.NVMShare, r.CompressibleFr, r.NVMBytes)
	}
	if err := tab.Write(os.Stdout, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "appstudy:", err)
		os.Exit(1)
	}
	if fails := cliutil.Failures(results); len(fails) > 0 {
		fmt.Fprintf(os.Stderr, "appstudy: %d of %d applications failed:\n", len(fails), len(results))
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %s [%s]: %v\n", f.Name, f.Kind(), f.Err)
		}
		os.Exit(1)
	}
}
