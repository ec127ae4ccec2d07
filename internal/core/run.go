package core

import (
	"context"

	"repro/internal/hier"
	"repro/internal/hybrid"
	"repro/internal/metrics"
)

// Result is everything one measured run leaves behind: the window's
// summary, the retained epoch series, and the set-dueling winner
// (negative for non-dueling policies). Results are immutable once
// returned, so caches and late readers share them freely.
type Result struct {
	Summary    Summary
	Epochs     []metrics.Sample
	CPthWinner int
}

// RunWindow is the single-run procedure every caller shares — the simd
// job pool, the fleet worker and cmd/hybridsim: pre-age the built
// system's NVM part to capacity (1 or more leaves it fresh), measure the
// window with MeasureCtx, then collect the retained epoch series and the
// dueling winner.
func RunWindow(ctx context.Context, sys *hier.System, capacity float64, warmupCycles, measureCycles uint64, hooks RunHooks) (*Result, error) {
	PreAge(sys, capacity)
	sum, err := MeasureCtx(ctx, sys, warmupCycles, measureCycles, hooks)
	if err != nil {
		return nil, err
	}
	winner := -1
	if d, ok := Dueling(sys); ok {
		winner = d.Winner()
	}
	return &Result{Summary: sum, Epochs: sys.EpochRing().Samples(), CPthWinner: winner}, nil
}

// RunHooks observe a windowed run while it executes. All callbacks fire
// on the simulation goroutine between run chunks — an epoch at most after
// the event they report — and must not block for long.
type RunHooks struct {
	// OnEpoch receives each newly closed epoch sample, in order, exactly
	// once (including warm-up epochs). The simd daemon streams these to
	// live clients.
	OnEpoch func(metrics.Sample)
	// OnProgress reports cycles completed out of the total requested
	// window (warm-up + measurement).
	OnProgress func(done, total uint64)
}

// MeasureCtx warms the system up and measures a window, returning its
// summary; it is the one place a Summary is built from a run. It runs in
// epoch-sized chunks so the context is honoured and the hooks fire at
// epoch boundaries. The chunking is invisible to the result — the
// scheduler steps the furthest-behind core against absolute cycle
// targets, so the step sequence, and therefore the summary, is
// bit-identical to one hier.System.Run call per window (pinned by
// TestMeasureCtxMatchesMeasure). On cancellation the context error is
// returned and the simulation stops at the next chunk boundary with its
// state intact.
func MeasureCtx(ctx context.Context, sys *hier.System, warmupCycles, measureCycles uint64, hooks RunHooks) (Summary, error) {
	total := warmupCycles + measureCycles
	start := sys.Now()
	ring := sys.EpochRing()
	seen := ring.Total()
	emit := func() {
		if hooks.OnEpoch != nil {
			if t := ring.Total(); t > seen {
				samples := ring.Samples()
				n := t - seen
				if n > len(samples) {
					n = len(samples) // ring overwrote part of the backlog
				}
				for _, s := range samples[len(samples)-n:] {
					hooks.OnEpoch(s)
				}
				seen = t
			}
		}
		// The scheduler can overshoot a chunk target by a few cycles;
		// clamp so the final report is exactly total/total.
		done := sys.Now() - start
		if done > total {
			done = total
		}
		if hooks.OnProgress != nil {
			hooks.OnProgress(done, total)
		}
	}
	chunk := sys.Config().EpochCycles
	runTo := func(target uint64) error {
		for {
			now := sys.Now()
			if now >= target {
				return nil
			}
			if err := ctx.Err(); err != nil {
				return err
			}
			step := chunk
			if remaining := target - now; step > remaining {
				step = remaining
			}
			sys.Run(step)
			emit()
		}
	}

	if err := runTo(sys.Now() + warmupCycles); err != nil {
		return Summary{}, err
	}

	// Measured window: bracket the chunked runs with a registry snapshot
	// and per-core instruction/cycle marks, mirroring what hier.Run does
	// internally for a single window.
	cores := sys.Cores()
	insts0 := make([]uint64, len(cores))
	cycles0 := make([]uint64, len(cores))
	for i, c := range cores {
		insts0[i], cycles0[i] = c.Insts(), c.Cycles()
	}
	before := sys.Metrics().Snapshot()
	if err := runTo(sys.Now() + measureCycles); err != nil {
		return Summary{}, err
	}
	delta := sys.Metrics().Snapshot().Delta(before)

	var sum float64
	for i, c := range cores {
		ipc := 0.0
		if d := c.Cycles() - cycles0[i]; d > 0 {
			ipc = float64(c.Insts()-insts0[i]) / float64(d)
		}
		sum += ipc
	}
	st := hybrid.StatsFromSnapshot(delta)
	return Summary{
		Policy:          sys.LLC().Policy().Name(),
		MeanIPC:         sum / float64(len(cores)),
		HitRate:         st.HitRate(),
		Hits:            st.Hits,
		Misses:          st.Misses,
		NVMBytesWritten: st.NVMBytesWritten,
		NVMBlockWrites:  st.NVMBlockWrites,
		SRAMHits:        st.SRAMHits,
		NVMHits:         st.NVMHits,
		Inserts:         st.Inserts,
		Migrations:      st.Migrations,
		Capacity:        sys.LLC().EffectiveCapacityFraction(),
		Metrics:         delta,
	}, nil
}
