// Command bench measures the simulator's hot-path cost — ns, heap
// allocations and allocated bytes per LLC access — across a mix×policy
// cross, and writes the result as BENCH_hotpath.json through the shared
// report sink. It is the performance baseline the alloc-regression tests
// pin: run it before and after a change and compare the JSON (or pipe
// two text runs through benchstat).
//
//	bench -quick                               # CI baseline, writes BENCH_hotpath.json
//	bench -quick -mixes 1,2 -policies BH,CP_SD # a smaller cross
//	bench -cpuprofile cpu.out -memprofile mem.out -quick
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

func main() {
	quick := flag.Bool("quick", false, "small configuration, short windows")
	mixes := flag.String("mixes", "1", `mixes to bench: "all" or comma-separated 1-based list`)
	policies := flag.String("policies", "all", `policies to bench: "all" or comma-separated names from `+cliutil.PolicyNames())
	warmup := flag.Uint64("warmup", 0, "warm-up cycles (0 = preset default)")
	measure := flag.Uint64("measure", 0, "measured cycles (0 = preset default)")
	seed := flag.Uint64("seed", 1, "workload and endurance seed")
	estimate := flag.Bool("estimate", false, "bench the POST /v1/estimate cached fast path instead of the hot path (gates: p50 < 1 ms, 0 allocs per cache lookup)")
	estIters := flag.Int("estimate-iters", 2000, "cached-estimate requests to measure with -estimate")
	out := flag.String("out", "", `JSON report path ("" selects BENCH_hotpath.json, or BENCH_estimate.json with -estimate; "none" disables)`)
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile after the sweep")
	csvOut := flag.Bool("csv", false, "emit CSV on stdout")
	jsonOut := flag.Bool("json", false, "emit JSON on stdout")
	flag.Parse()

	cfg := core.DefaultConfig()
	w, m := uint64(2_000_000), uint64(2_000_000)
	if *quick {
		cfg = core.QuickConfig()
		w, m = 300_000, 300_000
	}
	if *warmup > 0 {
		w = *warmup
	}
	if *measure > 0 {
		m = *measure
	}
	cfg.Seed = *seed

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var rep *report.Report
	var results []cliutil.TaskResult
	var gateErr error
	defaultOut := "BENCH_hotpath.json"
	if *estimate {
		defaultOut = "BENCH_estimate.json"
		var err error
		rep, err = estimateBench(*estIters)
		if rep == nil {
			fatal(err)
		}
		gateErr = err // report first, then fail the gate
	} else {
		mixList, err := cliutil.ParseMixes(*mixes)
		if err != nil {
			fatal(err)
		}
		polList, err := parsePolicies(*policies)
		if err != nil {
			fatal(err)
		}
		opt := experiments.HotPathOptions{
			Base:     cfg,
			Mixes:    mixList,
			Policies: polList,
			Warmup:   w,
			Measure:  m,
		}
		var rows []experiments.HotPathRow
		rows, results, err = experiments.HotPathBench(opt)
		if err != nil {
			fatal(err)
		}
		rep = experiments.HotPathReport(opt, rows, results)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	path := *out
	if path == "" {
		path = defaultOut
	}
	if path != "none" {
		f, err := os.Create(path)
		if err != nil {
			fatal(err)
		}
		if err := rep.Write(f, report.JSON); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	}
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
	if err := cliutil.ErrOf(results); err != nil {
		fatal(err)
	}
	if gateErr != nil {
		fatal(gateErr)
	}
}

// parsePolicies converts the -policies selector into policy names,
// validated against the registry.
func parsePolicies(arg string) ([]string, error) {
	if arg == "all" {
		return core.Policies(), nil
	}
	valid := make(map[string]bool)
	for _, p := range core.Policies() {
		valid[p] = true
	}
	var out []string
	for _, tok := range strings.Split(arg, ",") {
		p := strings.TrimSpace(tok)
		if !valid[p] {
			return nil, fmt.Errorf("unknown policy %q (valid: %v)", p, core.Policies())
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty policy list")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
