package experiments

import (
	"fmt"

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
	RelativeToBH float64 // total energy vs the BH baseline (set when BH ran)
}

// EnergyComparison measures the energy of each named policy on the same
// mixes. It mirrors the motivation of TAP ([32] reports −25% LLC energy
// vs LRU): NVM-conservative policies avoid expensive NVM writes, and
// compression shrinks each write that remains.
// A failed policy is dropped from the result (and from the BH
// normalisation) and reported in the returned task records.
func EnergyComparison(base core.Config, policies []string, mixes []int, warmup, measure uint64) ([]EnergyRow, []cliutil.TaskResult, error) {
	model := energy.Default()
	rows := make([]EnergyRow, len(policies))
	tasks := make([]cliutil.Task, len(policies))
	for pi := range tasks {
		pi := pi
		name := policies[pi]
		tasks[pi] = cliutil.Task{Name: fmt.Sprintf("policy=%s", name), Run: func() error {
			var agg energy.Breakdown
			var instr uint64
			var ipc float64
			for _, m := range mixes {
				cfg := base
				cfg.MixID = m
				cfg.PolicyName = name
				cfg.Th = 4
				sys, err := cfg.Build()
				if err != nil {
					return err
				}
				sys.Run(warmup)
				r := sys.Run(measure)
				g := energy.Geometry{
					Sets:     sys.LLC().Sets(),
					SRAMWays: sys.LLC().SRAMWays(),
					NVMWays:  sys.LLC().NVMWays(),
				}
				b := model.Window(r.LLC, r.Cycles, g)
				agg.SRAMDynamic += b.SRAMDynamic
				agg.NVMDynamic += b.NVMDynamic
				agg.TagDynamic += b.TagDynamic
				agg.SRAMLeak += b.SRAMLeak
				agg.NVMLeak += b.NVMLeak
				for _, n := range r.Insts {
					instr += n
				}
				ipc += r.MeanIPC / float64(len(mixes))
			}
			rows[pi] = EnergyRow{
				Policy:    name,
				Breakdown: agg,
				PerKI:     energy.PerKiloInstr(agg, instr),
				MeanIPC:   ipc,
			}
			return nil
		}}
	}
	results := cliutil.RunTasks(tasks, cliutil.PoolConfig{})
	var out []EnergyRow
	for pi, r := range results {
		if !r.Failed() {
			out = append(out, rows[pi])
		}
	}
	var bhTotal float64
	for _, row := range out {
		if row.Policy == "BH" {
			bhTotal = row.Breakdown.Total()
		}
	}
	if bhTotal > 0 {
		for i := range out {
			out[i].RelativeToBH = out[i].Breakdown.Total() / bhTotal
		}
	}
	return out, results, nil
}
