// Command wearmap runs a simulation, ages the NVM array to a target
// capacity with the measured write-rate distribution, and reports how the
// wear and faults are distributed across frames and across sets — the
// view a device architect uses to judge wear-leveling quality. The
// device-level aggregates come from the metrics registry's nvm.array.*
// subtree, including the wear-variation family (inter-set and intra-set
// CoV, min/max frame wear, Gini).
//
//	wearmap -policy CP_SD -capacity 0.8
//	wearmap -quick -mix 11 -coloring wear:interval=1,pairs=32
//	wearmap -json | jq .fields.wear_interset_cov
package main

import (
	"cmp"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/nvm"
	"repro/internal/report"
)

// options carries everything run needs, so the golden-file test can
// drive the full pipeline without going through flag parsing.
type options struct {
	Config   core.Config // validated by Build
	Capacity float64
	Warmup   uint64
	Measure  uint64
}

// preset returns the base config and the warm-up and measured windows
// of the full or the -quick wear map.
func preset(quick bool) (core.Config, uint64, uint64) {
	if quick {
		return core.QuickConfig(), 300_000, 1_000_000
	}
	return core.DefaultConfig(), 2_000_000, 8_000_000
}

func main() {
	cf := cliutil.BindConfig(flag.CommandLine, "policy", "mix", "seed", "coloring")
	capacity := flag.Float64("capacity", 0.8, "age until this capacity fraction")
	warmup := flag.Uint64("warmup", 0, "warm-up cycles (0 = preset default)")
	measure := flag.Uint64("measure", 0, "cycles to measure write rates over (0 = preset default)")
	quick := flag.Bool("quick", false, "small configuration, short windows")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	base, warm, meas := preset(*quick)
	cfg, err := cf.Config(base)
	if err != nil {
		fatal(err)
	}
	rep, err := run(options{Config: cfg, Capacity: *capacity, Warmup: cmp.Or(*warmup, warm), Measure: cmp.Or(*measure, meas)})
	if err != nil {
		fatal(err)
	}
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
}

// run executes the measure-then-age pipeline and builds the report.
func run(opt options) (*report.Report, error) {
	// Negated, so that NaN, which fails every comparison, is refused.
	if !(opt.Capacity > 0 && opt.Capacity <= 1) {
		return nil, fmt.Errorf("capacity %v outside (0, 1]", opt.Capacity)
	}
	cfg := opt.Config
	sys, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	arr := sys.LLC().Array()
	if arr == nil {
		return nil, fmt.Errorf("policy %s has no NVM part", cfg.PolicyName)
	}

	// Measure real per-frame write rates, then age with them.
	sys.Run(opt.Warmup)
	arr.ResetPhase()
	st := sys.Run(opt.Measure)
	// Wear variation of the simulated window itself, before aging: aging
	// runs frames into their endurance limits, which truncates the wear
	// distribution and hides the rate imbalance the wear coloring acts
	// on. These are the numbers wear-leveling quality is judged by.
	simWV := arr.WearVariation()
	seconds := float64(st.Cycles) / forecast.DefaultConfig().ClockHz
	elapsed, capFrac := forecast.AgeFrames(arr.Frames(), seconds, opt.Capacity, 1e18)
	sys.LLC().InvalidateUnfit()

	// Distribution of per-frame live bytes and wear.
	frames := arr.Frames()
	live := make([]int, len(frames))
	wear := make([]float64, len(frames))
	for i, f := range frames {
		live[i] = f.LiveBytes()
		wear[i] = f.Wear()
	}
	sort.Ints(live)
	sort.Float64s(wear)
	pct := func(xs []int, p float64) int { return xs[int(p*float64(len(xs)-1))] }
	pctF := func(xs []float64, p float64) float64 { return xs[int(p*float64(len(xs)-1))] }

	rep := report.NewReport(fmt.Sprintf("NVM wear map: %s mix %d aged to %.0f%% capacity",
		cfg.PolicyName, cfg.MixID+1, capFrac*100))
	rep.AddField("policy", cfg.PolicyName)
	rep.AddField("mix", cfg.MixID+1)
	if cfg.Coloring != nil {
		rep.AddField("coloring", cliutil.ColoringSpec(cfg.Coloring))
	}
	rep.AddField("capacity", capFrac)
	rep.AddField("aged_months", elapsed/forecast.SecondsPerMonth)
	// Device aggregates, straight from the registry's nvm.array.* subtree.
	// A fresh snapshot runs the array's aggregation hook, so the gauges
	// reflect the post-aging state rather than the last Run window's.
	snap := sys.Metrics().Snapshot()
	for _, m := range []struct{ field, metric string }{
		{"dead_frames", "nvm.array.dead_frames"},
		{"live_frames", "nvm.array.live_frames"},
		{"faulty_bytes", "nvm.array.faulty_bytes"},
		{"wear_mean", "nvm.array.wear_mean"},
		{"wear_max", "nvm.array.wear_max"},
		{"wear_min", "nvm.array.wear_min"},
		{"wear_interset_cov", "nvm.array.wear_interset_cov"},
		{"wear_intraset_cov", "nvm.array.wear_intraset_cov"},
		{"wear_gini", "nvm.array.wear_gini"},
	} {
		if v, ok := snap.Gauges[m.metric]; ok {
			rep.AddField(m.field, v)
		}
	}
	rep.AddField("sim_wear_interset_cov", simWV.InterSetCoV)
	rep.AddField("sim_wear_intraset_cov", simWV.IntraSetCoV)
	rep.AddField("sim_wear_gini", simWV.Gini)
	rep.AddField("dead_frame_fraction", float64(len(frames)-arr.LiveFrames())/float64(len(frames)))
	// Wear imbalance across frames: p90/median wear; 1.0 = perfectly level.
	if med := pctF(wear, 0.5); med > 0 {
		rep.AddField("wear_imbalance", pctF(wear, 0.9)/med)
	}

	// Per-set heat: mean frame wear per physical set, before sorting the
	// flat frame slice destroys set identity. The hottest-set table uses
	// (wear desc, set asc) ordering so ties report deterministically.
	rowWear := nvm.RowWearInto(make([]float64, cfg.LLCSets), frames, cfg.LLCSets, arr.Ways())
	for i := range rowWear {
		rowWear[i] /= float64(arr.Ways())
	}
	hot := make([]int, len(rowWear))
	for i := range hot {
		hot[i] = i
	}
	sort.Slice(hot, func(a, b int) bool {
		if rowWear[hot[a]] != rowWear[hot[b]] {
			return rowWear[hot[a]] > rowWear[hot[b]]
		}
		return hot[a] < hot[b]
	})
	meanRow := 0.0
	for _, w := range rowWear {
		meanRow += w
	}
	meanRow /= float64(len(rowWear))

	tab := report.New("per-frame distribution", "metric", "p10", "p50", "p90", "max")
	tab.AddRow("live bytes/frame", pct(live, 0.1), pct(live, 0.5), pct(live, 0.9), live[len(live)-1])
	tab.AddRow("wear (writes/byte)", pctF(wear, 0.1), pctF(wear, 0.5), pctF(wear, 0.9), wear[len(wear)-1])
	sortedRow := append([]float64(nil), rowWear...)
	sort.Float64s(sortedRow)
	tab.AddRow("set wear (row mean)", pctF(sortedRow, 0.1), pctF(sortedRow, 0.5), pctF(sortedRow, 0.9), sortedRow[len(sortedRow)-1])
	rep.AddTable(tab)

	heat := report.New("hottest sets", "rank", "set", "mean_wear", "vs_mean")
	n := 8
	if n > len(hot) {
		n = len(hot)
	}
	for i := 0; i < n; i++ {
		ratio := 0.0
		if meanRow > 0 {
			ratio = rowWear[hot[i]] / meanRow
		}
		heat.AddRow(i+1, hot[i], rowWear[hot[i]], ratio)
	}
	rep.AddTable(heat)

	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wearmap:", err)
	os.Exit(1)
}
