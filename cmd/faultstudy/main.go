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
	"flag"
	"fmt"
	"os"

	"repro/internal/check"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/report"
)

type studyOptions struct {
	Policy     string
	Mix        int // 0-based
	Seed       uint64
	SpecPath   string  // campaign spec JSON; empty = capacity ramp
	Target     float64 // ramp: final effective capacity fraction
	Step       float64 // ramp: capacity drop per step
	CheckEvery uint64  // continuous checker interval (0 = step-only checks)
	Coloring   string  // set-coloring spec ("" = off)
	Quick      bool
	Warmup     uint64
	Measure    uint64
}

func main() {
	nMixes := len(core.AllMixes())
	policy := flag.String("policy", "CP_SD", "insertion policy: "+cliutil.PolicyNames())
	mix := flag.Int("mix", 1, fmt.Sprintf("mix number (1-%d)", nMixes))
	seed := flag.Uint64("seed", 1, "campaign and workload seed")
	spec := flag.String("spec", "", "campaign spec JSON file (default: capacity ramp)")
	target := flag.Float64("target", 0.5, "ramp target effective capacity fraction")
	step := flag.Float64("step", 0.1, "ramp capacity drop per step")
	checkEvery := flag.Uint64("checkevery", 10_000, "run the invariant checker every N LLC accesses (0 disables)")
	coloring := flag.String("coloring", "", `set coloring: "xor:mask=N", "rotate:interval=N,step=N", "wear:interval=N,pairs=N" or "off"`)
	quick := flag.Bool("quick", false, "small configuration, short windows")
	warmup := flag.Uint64("warmup", 0, "warm-up cycles (0 = preset default)")
	measure := flag.Uint64("measure", 0, "measured cycles per step (0 = preset default)")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	if *mix < 1 || *mix > nMixes {
		fatal(fmt.Errorf("mix %d outside 1-%d", *mix, nMixes))
	}
	opt := studyOptions{
		Policy:     *policy,
		Mix:        *mix - 1,
		Seed:       *seed,
		SpecPath:   *spec,
		Target:     *target,
		Step:       *step,
		CheckEvery: *checkEvery,
		Coloring:   *coloring,
		Quick:      *quick,
		Warmup:     *warmup,
		Measure:    *measure,
	}
	rep, violations, err := runStudy(opt)
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
	cfg := core.DefaultConfig()
	warmup, measure := uint64(2_000_000), uint64(2_000_000)
	if opt.Quick {
		cfg = core.QuickConfig()
		warmup, measure = 300_000, 300_000
	}
	if opt.Warmup > 0 {
		warmup = opt.Warmup
	}
	if opt.Measure > 0 {
		measure = opt.Measure
	}
	cfg.PolicyName = opt.Policy
	cfg.MixID = opt.Mix
	cfg.Seed = opt.Seed
	cfg.CheckEvery = opt.CheckEvery
	// ApplyColoring validates the whole config (coloring included).
	if err := cliutil.ApplyColoring(&cfg, opt.Coloring); err != nil {
		return nil, 0, err
	}
	sys, err := cfg.Build()
	if err != nil {
		return nil, 0, err
	}

	var spec faultinject.Spec
	if opt.SpecPath != "" {
		spec, err = faultinject.LoadSpec(opt.SpecPath)
		if err != nil {
			return nil, 0, err
		}
	} else {
		if opt.Step <= 0 || opt.Target <= 0 || opt.Target >= 1 {
			return nil, 0, fmt.Errorf("faultstudy: bad ramp step=%v target=%v", opt.Step, opt.Target)
		}
		spec = faultinject.CapacityRamp(opt.Seed, 1-opt.Step, opt.Target, opt.Step)
	}
	camp, err := faultinject.NewCampaign(sys.LLC().Array(), spec)
	if err != nil {
		return nil, 0, err
	}

	rep := report.NewReport(fmt.Sprintf("fault-injection study: %s, mix %d", opt.Policy, opt.Mix+1))
	rep.AddField("policy", opt.Policy)
	rep.AddField("mix", opt.Mix+1)
	rep.AddField("seed", opt.Seed)
	rep.AddField("campaign_steps", len(spec.Steps))

	tab := report.New("degradation curve",
		"step", "kind", "capacity", "live_frames", "bytes_disabled",
		"frames_killed", "hit_rate", "mean_ipc", "violations")

	sys.Run(warmup)
	llc := sys.LLC()
	base := sys.Run(measure)
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
		r := sys.Run(measure)
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
