package experiments

import (
	"fmt"
	"sort"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/workload"
)

// AppRow is one application's behaviour under a policy when run
// homogeneously (four copies, one per core) — the per-benchmark view
// behind §IV-A's observations: with CA, fully-incompressible applications
// (xz17, milc06) push everything into SRAM and over-reference it, while
// fully-compressible ones (GemsFDTD06, zeusmp06) do the opposite.
type AppRow struct {
	App            string
	HitRate        float64
	MeanIPC        float64
	NVMBytes       uint64
	NVMShare       float64 // fraction of LLC insertions placed in NVM
	CompressibleFr float64 // fraction of inserted blocks that compressed
}

// PerAppStudy runs each profiled application homogeneously under the given
// policy configuration and reports the per-app placement behaviour. Rows
// are sorted by application name. An invalid policy fails fast; a failure
// inside one application's simulation drops that row and is reported in
// the returned task records while the remaining applications complete.
func PerAppStudy(base core.Config, policyName string, warmup, measure uint64) ([]AppRow, []cliutil.TaskResult, error) {
	probe := base
	probe.PolicyName = policyName
	if _, _, _, _, err := core.BuildPolicy(probe); err != nil {
		return nil, nil, err
	}

	profs := workload.Profiles()
	names := make([]string, 0, len(profs))
	for n, p := range profs {
		if p.Synthetic {
			continue // the per-app figures cover the paper's Table V apps
		}
		names = append(names, n)
	}
	sort.Strings(names)

	rows := make([]AppRow, len(names))
	tasks := make([]cliutil.Task, len(names))
	for i := range tasks {
		i := i
		name := names[i]
		tasks[i] = cliutil.Task{Name: fmt.Sprintf("app=%s", name), Run: func() error {
			cfg := base
			cfg.PolicyName = policyName
			sys, err := buildHomogeneous(cfg, profs[name])
			if err != nil {
				return err
			}
			sys.Run(warmup)
			r := sys.Run(measure)
			row := AppRow{
				App:      name,
				HitRate:  r.LLC.HitRate(),
				MeanIPC:  r.MeanIPC,
				NVMBytes: r.LLC.NVMBytesWritten,
			}
			if ins := r.LLC.SRAMInserts + r.LLC.NVMInserts; ins > 0 {
				row.NVMShare = float64(r.LLC.NVMInserts) / float64(ins)
			}
			if tot := r.LLC.InsertHCR + r.LLC.InsertLCR + r.LLC.InsertIncomp; tot > 0 {
				row.CompressibleFr = float64(r.LLC.InsertHCR+r.LLC.InsertLCR) / float64(tot)
			}
			rows[i] = row
			return nil
		}}
	}
	results := runTasks(tasks)
	var out []AppRow
	for i, r := range results {
		if !r.Failed() {
			out = append(out, rows[i])
		}
	}
	return out, results, nil
}

// buildHomogeneous builds the config's system — policy, LLC, hierarchy
// and checker exactly as core.Config.Build makes them — running four
// copies of one profile in place of the config's mix.
func buildHomogeneous(cfg core.Config, prof workload.Profile) (*hier.System, error) {
	progs := make([]hier.Program, 4)
	for i := range progs {
		app, err := workload.NewApp(prof.Scale(cfg.Scale), uint64(i+1)*workload.AppSpacing, cfg.Seed+uint64(i)*7919)
		if err != nil {
			return nil, err
		}
		progs[i] = app
	}
	return cfg.BuildFromPrograms(progs)
}
