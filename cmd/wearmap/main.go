// Command wearmap runs a simulation, ages the NVM array to a target
// capacity with the measured write-rate distribution, and reports how the
// wear and faults are distributed across frames and across sets — the
// view a device architect uses to judge wear-leveling quality. The
// device-level aggregates come from the metrics registry's nvm.array.*
// subtree, including the wear-variation family (inter-set and intra-set
// CoV, min/max frame wear, Gini). Optionally dumps the full NVM state
// (fault maps, wear, endurance limits) to a snapshot file.
//
//	wearmap -policy CP_SD -capacity 0.8
//	wearmap -quick -mix 11 -coloring wear:interval=1,pairs=32
//	wearmap -policy BH -capacity 0.9 -state bh.nvmstate
//	wearmap -json | jq .fields.wear_interset_cov
package main

import (
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
	Policy    string
	Mix       int // 0-based
	Seed      uint64
	Capacity  float64
	Warmup    uint64 // 0 = preset default
	Measure   uint64 // 0 = preset default
	Coloring  string // set-coloring spec ("" = off)
	Quick     bool
	StatePath string
}

func main() {
	def := core.DefaultConfig()
	nMixes := len(core.AllMixes())
	policyName := flag.String("policy", def.PolicyName, "insertion policy: "+cliutil.PolicyNames())
	mix := flag.Int("mix", 1, fmt.Sprintf("mix number (1-%d: Table V plus skewed-traffic scenarios)", nMixes))
	seed := flag.Uint64("seed", def.Seed, "deterministic seed")
	capacity := flag.Float64("capacity", 0.8, "age until this capacity fraction")
	warmup := flag.Uint64("warmup", 0, "warm-up cycles (0 = preset default)")
	measure := flag.Uint64("measure", 0, "cycles to measure write rates over (0 = preset default)")
	coloring := flag.String("coloring", "", `set coloring: "xor:mask=N", "rotate:interval=N,step=N", "wear:interval=N,pairs=N" or "off"`)
	quick := flag.Bool("quick", false, "small configuration, short windows")
	statePath := flag.String("state", "", "write the aged NVM state snapshot to this file")
	csvOut := flag.Bool("csv", false, "emit CSV")
	jsonOut := flag.Bool("json", false, "emit JSON")
	flag.Parse()

	if *mix < 1 || *mix > nMixes {
		fatal(fmt.Errorf("mix %d outside 1-%d", *mix, nMixes))
	}
	rep, err := run(options{
		Policy:    *policyName,
		Mix:       *mix - 1,
		Seed:      *seed,
		Capacity:  *capacity,
		Warmup:    *warmup,
		Measure:   *measure,
		Coloring:  *coloring,
		Quick:     *quick,
		StatePath: *statePath,
	})
	if err != nil {
		fatal(err)
	}
	if err := rep.Write(os.Stdout, report.FormatOf(*jsonOut, *csvOut)); err != nil {
		fatal(err)
	}
}

// run executes the measure-then-age pipeline and builds the report.
func run(opt options) (*report.Report, error) {
	cfg := core.DefaultConfig()
	warmup, measure := uint64(2_000_000), uint64(8_000_000)
	if opt.Quick {
		cfg = core.QuickConfig()
		warmup, measure = 300_000, 1_000_000
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
	// ApplyColoring validates the whole config (coloring included).
	if err := cliutil.ApplyColoring(&cfg, opt.Coloring); err != nil {
		return nil, err
	}
	sys, err := cfg.Build()
	if err != nil {
		return nil, err
	}
	arr := sys.LLC().Array()
	if arr == nil {
		return nil, fmt.Errorf("policy %s has no NVM part", opt.Policy)
	}

	// Measure real per-frame write rates, then age with them.
	sys.Run(warmup)
	arr.ResetPhase()
	st := sys.Run(measure)
	// Wear variation of the simulated window itself, before aging: aging
	// runs frames into their endurance limits, which truncates the wear
	// distribution and hides the rate imbalance the coloring schemes act
	// on. These are the numbers wear-leveling quality is judged by.
	simWV := arr.WearVariation()
	seconds := float64(st.Cycles) / 3.5e9
	elapsed, capFrac := forecast.Age(arr, seconds, opt.Capacity, 1e18)
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
		opt.Policy, opt.Mix+1, capFrac*100))
	rep.AddField("policy", opt.Policy)
	rep.AddField("mix", opt.Mix+1)
	if opt.Coloring != "" && opt.Coloring != "off" {
		rep.AddField("coloring", opt.Coloring)
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

	if opt.StatePath != "" {
		f, err := os.Create(opt.StatePath)
		if err != nil {
			return nil, err
		}
		if err := arr.WriteSnapshot(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "NVM state written to %s\n", opt.StatePath)
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wearmap:", err)
	os.Exit(1)
}
