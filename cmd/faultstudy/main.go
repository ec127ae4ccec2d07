// Command faultstudy drives a deterministic fault-injection campaign
// against a running system and reports the graceful-degradation curve:
// per campaign step, the surviving effective NVM capacity, live frames,
// and the hit rate / IPC measured after the faults land. The full strict
// invariant suite runs after every step; any violation is reported and
// fails the run. Same seed, same flags → bit-identical report.
//
//	faultstudy -quick                      # fast degradation curve to 50%
//	faultstudy -policy CP_SD -mix 4        # full-size study
//	faultstudy -spec campaign.json -json   # replay a declarative campaign
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/nvm"
	"repro/internal/report"
)

type studyOptions struct {
	Config   core.Config // validated by Build
	SpecPath string      // campaign spec JSON; empty = capacity ramp
	Target   float64     // ramp: final effective capacity fraction
	Step     float64     // ramp: capacity drop per step
	Warmup   uint64
	Measure  uint64 // per step
}

// preset returns the base config and the warm-up and per-step measured
// windows of the full or the -quick study.
func preset(quick bool) (core.Config, uint64, uint64) {
	if quick {
		return core.QuickConfig(), 300_000, 300_000
	}
	return core.DefaultConfig(), 2_000_000, 2_000_000
}

func main() {
	cf := cliutil.BindConfig(flag.CommandLine, "policy", "mix", "seed", "coloring")
	spec := flag.String("spec", "", "campaign spec JSON file (default: capacity ramp)")
	target := flag.Float64("target", 0.5, "ramp target effective capacity fraction")
	step := flag.Float64("step", 0.1, "ramp capacity drop per step")
	checkEvery := flag.Uint64("checkevery", 10_000, "run the invariant checker every N LLC accesses (0 disables)")
	quick := flag.Bool("quick", false, "small configuration, short windows")
	warmup := flag.Uint64("warmup", 0, "warm-up cycles (0 = preset default)")
	measure := flag.Uint64("measure", 0, "measured cycles per step (0 = preset default)")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	base, warm, meas := preset(*quick)
	base.CheckEvery = *checkEvery
	cfg, err := cf.Config(base)
	if err != nil {
		fatal(err)
	}
	rep, violations, err := runStudy(studyOptions{Config: cfg, SpecPath: *spec, Target: *target, Step: *step,
		Warmup: cmp.Or(*warmup, warm), Measure: cmp.Or(*measure, meas)})
	if err != nil {
		fatal(err)
	}
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "faultstudy: %d invariant violations\n", violations)
		os.Exit(1)
	}
}

// runStudy executes the campaign and returns the report plus the total
// number of invariant violations observed (step checks and the
// continuous checker combined).
func runStudy(opt studyOptions) (*report.Report, int, error) {
	cfg := opt.Config
	sys, err := cfg.Build()
	if err != nil {
		return nil, 0, err
	}

	arr := sys.LLC().Array()
	var spec faultinject.Spec
	if opt.SpecPath != "" {
		spec, err = faultinject.LoadSpec(opt.SpecPath)
		if err != nil {
			return nil, 0, err
		}
	} else {
		// Negated, so that NaN, which fails every comparison, is refused.
		// A ramp of more steps than the array has data bytes would step
		// by less than a byte of capacity, which disables nothing, and
		// CapacityRamp would allocate every one of those steps.
		maxSteps := float64(len(arr.Frames()) * nvm.DataBytes)
		if !(opt.Step > 0 && opt.Target > 0 && opt.Target < 1 && (1-opt.Target)/opt.Step <= maxSteps) {
			return nil, 0, fmt.Errorf("bad ramp step=%v target=%v (at most %.0f steps, one per NVM data byte)",
				opt.Step, opt.Target, maxSteps)
		}
		spec = faultinject.CapacityRamp(cfg.Seed, 1, opt.Target, opt.Step)
	}
	camp, err := faultinject.NewCampaign(arr, spec)
	if err != nil {
		return nil, 0, err
	}

	rep := report.NewReport(fmt.Sprintf("fault-injection study: %s, mix %d", cfg.PolicyName, cfg.MixID+1))
	rep.AddField("policy", cfg.PolicyName)
	rep.AddField("mix", cfg.MixID+1)
	rep.AddField("seed", cfg.Seed)
	rep.AddField("campaign_steps", len(spec.Steps))

	tab := report.New("degradation curve",
		"step", "kind", "capacity", "live_frames", "bytes_disabled",
		"frames_killed", "hit_rate", "mean_ipc", "violations")

	sys.Run(opt.Warmup)
	llc := sys.LLC()
	base := sys.Run(opt.Measure)
	tab.AddRow(0, "baseline", llc.EffectiveCapacityFraction(), llc.Array().LiveFrames(),
		0, 0, base.LLC.HitRate(), base.MeanIPC, 0)

	viol := report.New("invariant violations", "step", "invariant", "detail")
	totalViolations := 0
	for {
		res, ok := camp.Next()
		if !ok {
			break
		}
		// Faults can strand resident blocks in frames that no longer fit
		// them; the hardware would invalidate on the next touch, the
		// simulator does it eagerly so the strict suite applies.
		llc.InvalidateUnfit()
		vs := append(check.LLC(llc, true), check.Array(llc.Array())...)
		for _, v := range vs {
			viol.AddRow(res.Index+1, v.Invariant, v.Detail)
		}
		totalViolations += len(vs)
		r := sys.Run(opt.Measure)
		tab.AddRow(res.Index+1, string(res.Kind), res.Capacity, res.LiveFrames,
			res.BytesDisabled, res.FramesKilled, r.LLC.HitRate(), r.MeanIPC, len(vs))
	}
	rep.AddTable(tab)
	if totalViolations > 0 {
		rep.AddTable(viol)
	}
	if chk, ok := sys.AccessProbe().(*check.Checker); ok {
		chk.ReportInto(rep)
		totalViolations += len(chk.Violations()) + chk.Dropped()
	}
	rep.AddField("final_capacity", llc.EffectiveCapacityFraction())
	rep.AddField("total_violations", totalViolations)
	return rep, totalViolations, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultstudy:", err)
	os.Exit(1)
}
