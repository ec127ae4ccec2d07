package core

import (
	"context"

	"repro/internal/hier"
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
// on the simulation goroutine at epoch closes, from inside the window's
// hier.System.RunCtx, and must not block for long.
type RunHooks struct {
	// OnEpoch receives each newly closed epoch sample, in order, exactly
	// once (including warm-up epochs). The sample owns its storage. The
	// simd daemon streams these to live clients.
	OnEpoch func(metrics.Sample)
	// OnProgress reports cycles completed out of the total requested
	// window (warm-up + measurement), at each epoch close and once more
	// at total/total when the window completes.
	OnProgress func(done, total uint64)
}

// MeasureCtx warms the system up and measures a window, returning its
// summary: one hier.System.RunCtx for the warm-up, one for the window,
// which honour the context and fire the hooks at epoch closes. On
// cancellation the context error is returned and the simulation stops
// at the next epoch close with its state intact.
func MeasureCtx(ctx context.Context, sys *hier.System, warmupCycles, measureCycles uint64, hooks RunHooks) (Summary, error) {
	total := warmupCycles + measureCycles
	start := sys.Now()
	onEpoch := func(s metrics.Sample) {
		if hooks.OnEpoch != nil {
			hooks.OnEpoch(s)
		}
		if hooks.OnProgress != nil {
			// The last epoch can close a few cycles past the window.
			hooks.OnProgress(min(sys.Now()-start, total), total)
		}
	}
	if _, err := sys.RunCtx(ctx, warmupCycles, onEpoch); err != nil {
		return Summary{}, err
	}
	st, err := sys.RunCtx(ctx, measureCycles, onEpoch)
	if err != nil {
		return Summary{}, err
	}
	if hooks.OnProgress != nil {
		hooks.OnProgress(total, total)
	}
	return summarize(sys, st), nil
}

// summarize condenses a measured window's statistics into its Summary.
func summarize(sys *hier.System, st hier.RunStats) Summary {
	return Summary{
		Policy:          sys.LLC().Policy().Name(),
		MeanIPC:         st.MeanIPC,
		HitRate:         st.LLC.HitRate(),
		Hits:            st.LLC.Hits,
		Misses:          st.LLC.Misses,
		NVMBytesWritten: st.LLC.NVMBytesWritten,
		NVMBlockWrites:  st.LLC.NVMBlockWrites,
		SRAMHits:        st.LLC.SRAMHits,
		NVMHits:         st.LLC.NVMHits,
		Inserts:         st.LLC.Inserts,
		Migrations:      st.LLC.Migrations,
		Capacity:        sys.LLC().EffectiveCapacityFraction(),
		Metrics:         st.Metrics,
	}
}
