package experiments

import (
	"math"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/energy"
)

// EnergyRow is one policy's energy profile over a measurement window.
type EnergyRow struct {
	Policy       string
	Breakdown    energy.Breakdown
	PerKI        float64 // mJ per kilo-instruction
	MeanIPC      float64
	RelativeToBH float64 // total energy vs the BH baseline; NaN without a completed BH row
}

// EnergyComparison measures the energy of each named policy on the same
// mixes. It mirrors the motivation of TAP ([32] reports −25% LLC energy
// vs LRU): NVM-conservative policies avoid expensive NVM writes, and
// compression shrinks each write that remains.
// A policy with a failed cell is dropped from the result (and from the
// BH normalisation) and its failures are reported in the task records.
// Without a completed BH row there is no baseline: every row's
// RelativeToBH is NaN.
func EnergyComparison(base core.Config, policies []string, mixes []int, warmup, measure uint64) ([]EnergyRow, []cliutil.TaskResult) {
	model := energy.Default()
	type window struct {
		energy energy.Breakdown
		instr  uint64
		ipc    float64
	}
	variants := make([]Variant, len(policies))
	for i, name := range policies {
		variants[i] = Variant{name, func(c *core.Config) {
			c.PolicyName = name
			c.Th = 4
		}}
	}
	g := runGrid(base, variants, mixes, func(_ int, cfg core.Config) (window, error) {
		sys, err := cfg.Build()
		if err != nil {
			return window{}, err
		}
		sys.Run(warmup)
		r := sys.Run(measure)
		geo := energy.Geometry{
			Sets:     sys.LLC().Sets(),
			SRAMWays: sys.LLC().SRAMWays(),
			NVMWays:  sys.LLC().NVMWays(),
		}
		w := window{energy: model.Window(r.LLC, r.Cycles, geo), ipc: r.MeanIPC}
		for _, n := range r.Insts {
			w.instr += n
		}
		return w, nil
	})
	var out []EnergyRow
	for i, name := range policies {
		row, ok := g.row(i)
		if !ok {
			continue
		}
		var agg energy.Breakdown
		var instr uint64
		var ipc float64
		for _, w := range row {
			agg.SRAMDynamic += w.energy.SRAMDynamic
			agg.NVMDynamic += w.energy.NVMDynamic
			agg.TagDynamic += w.energy.TagDynamic
			agg.SRAMLeak += w.energy.SRAMLeak
			agg.NVMLeak += w.energy.NVMLeak
			instr += w.instr
			ipc += w.ipc / float64(len(mixes))
		}
		out = append(out, EnergyRow{
			Policy:    name,
			Breakdown: agg,
			PerKI:     energy.PerKiloInstr(agg, instr),
			MeanIPC:   ipc,
		})
	}
	var bhTotal float64
	for _, row := range out {
		if row.Policy == "BH" {
			bhTotal = row.Breakdown.Total()
		}
	}
	for i := range out {
		out[i].RelativeToBH = math.NaN() // no baseline
		if bhTotal > 0 {
			out[i].RelativeToBH = out[i].Breakdown.Total() / bhTotal
		}
	}
	return out, g.results
}
