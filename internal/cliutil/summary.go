package cliutil

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hier"
	"repro/internal/metrics"
	"repro/internal/report"
	"repro/internal/stats"
)

// RunReportOptions select the optional sections of a single-run report.
type RunReportOptions struct {
	// CPthWinner is the set-dueling winner to report; negative omits the
	// field (non-dueling policies).
	CPthWinner int
	// Metrics includes the full registry delta of the measured window.
	Metrics bool
	// Epochs, when non-nil, includes the per-epoch series table
	// (hier.EpochColumns layout).
	Epochs []metrics.Sample
}

// RunReport renders the canonical single-run report — the cmd/hybridsim
// output schema — from a config and its measured summary. The simd job
// daemon renders completed jobs through the same function, so a job
// result is byte-identical to the equivalent hybridsim invocation in
// every encoding.
func RunReport(cfg core.Config, s core.Summary, opt RunReportOptions) *report.Report {
	mix := cfg.MixID + 1
	rep := report.NewReport(fmt.Sprintf("hybridsim: %s mix %d", s.Policy, mix))
	rep.AddField("policy", s.Policy)
	rep.AddField("mix", mix)
	rep.AddField("mean_ipc", s.MeanIPC)
	rep.AddField("hit_rate", s.HitRate)
	rep.AddField("hits", s.Hits)
	rep.AddField("misses", s.Misses)
	rep.AddField("sram_hits", s.SRAMHits)
	rep.AddField("nvm_hits", s.NVMHits)
	rep.AddField("inserts", s.Inserts)
	rep.AddField("migrations", s.Migrations)
	rep.AddField("nvm_block_writes", s.NVMBlockWrites)
	rep.AddField("nvm_bytes_written", s.NVMBytesWritten)
	rep.AddField("nvm_bytes_si", stats.FormatSI(float64(s.NVMBytesWritten)))
	rep.AddField("nvm_capacity", s.Capacity)
	if opt.CPthWinner >= 0 {
		rep.AddField("cpth_winner", opt.CPthWinner)
	}
	if opt.Metrics {
		rep.AddTable(report.SnapshotTable("window metrics", s.Metrics))
	}
	if opt.Epochs != nil {
		rep.AddTable(report.SamplesTable("epoch series", hier.EpochColumns, opt.Epochs))
	}
	return rep
}
