package core

import (
	"context"

	"repro/internal/hier"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/nvm"
)

// RunHandle wraps a built simulation behind the surface callers that
// drive long runs (the simd job daemon, cmd/hybridsim) need: chunked,
// cancellable measurement plus the aging and telemetry accessors.
type RunHandle struct {
	cfg Config
	sys *hier.System
}

// NewRunHandle builds the simulation the config describes.
func (c Config) NewRunHandle() (*RunHandle, error) {
	sys, err := c.Build()
	if err != nil {
		return nil, err
	}
	return &RunHandle{cfg: c, sys: sys}, nil
}

// NewRunHandleFromPrograms builds a handle over caller-supplied per-core
// programs (trace replays).
func (c Config) NewRunHandleFromPrograms(progs []hier.Program) (*RunHandle, error) {
	sys, err := c.BuildFromPrograms(progs)
	if err != nil {
		return nil, err
	}
	return &RunHandle{cfg: c, sys: sys}, nil
}

// Config returns the config the handle was built from.
func (h *RunHandle) Config() Config { return h.cfg }

// System returns the hierarchy; its registry and epoch ring carry the
// run's telemetry.
func (h *RunHandle) System() *hier.System { return h.sys }

// EpochRing returns the per-epoch sample ring of the run.
func (h *RunHandle) EpochRing() *metrics.EpochRing { return h.sys.EpochRing() }

// PolicyName names the insertion policy the handle simulates.
func (h *RunHandle) PolicyName() string { return h.sys.LLC().Policy().Name() }

// Capacity returns the NVM part's current effective capacity fraction.
func (h *RunHandle) Capacity() float64 { return h.sys.LLC().EffectiveCapacityFraction() }

// Frames returns the NVM frames in stable set-major order (nil for
// SRAM-only configurations) — the order forecast.AgeFrames needs for a
// bit-identical aging trajectory. The frames are live simulation state:
// callers must only touch them while the handle is quiescent (between
// MeasureCtx calls).
func (h *RunHandle) Frames() []*nvm.Frame {
	if arr := h.sys.LLC().Array(); arr != nil {
		return arr.Frames()
	}
	return nil
}

// ResetPhase clears the per-frame phase write counters, starting a fresh
// measurement window for the analytic aging model (a no-op for SRAM-only
// configurations).
func (h *RunHandle) ResetPhase() {
	if arr := h.sys.LLC().Array(); arr != nil {
		arr.ResetPhase()
	}
}

// PreAge wears the NVM array to the target capacity fraction (PreAge).
func (h *RunHandle) PreAge(targetCapacity float64) { PreAge(h.sys, targetCapacity) }

// DuelingWinner returns the set-dueling controller's current winner, when
// the policy uses one.
func (h *RunHandle) DuelingWinner() (int, bool) {
	d, ok := Dueling(h.sys)
	if !ok {
		return 0, false
	}
	return d.Winner(), true
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
	// OnCheckpoint fires after every completed run chunk, once the
	// chunk's epochs have been delivered — the point at which the run's
	// observable state (progress, epoch count) is consistent and safe to
	// persist. The simd job store journals these so a killed daemon
	// knows how far each job had come; the simulator's bit-exact
	// determinism means recovery re-executes from the config and
	// provably re-reaches the same checkpoint.
	OnCheckpoint func(Checkpoint)
}

// Checkpoint is a consistent progress mark of a chunked run: the cycles
// completed of the requested window and the epochs closed so far.
type Checkpoint struct {
	Cycles      uint64 // completed cycles of the window (clamped to Total)
	TotalCycles uint64 // requested window: warm-up + measurement
	Epochs      int    // epoch samples recorded since the run began
}

// MeasureCtx is the cancellable, observable form of Measure: it warms the
// simulation up and measures a window, running in epoch-sized chunks so
// the context is honoured and the hooks fire at epoch boundaries. The
// chunking is invisible to the result — the scheduler steps the
// furthest-behind core against absolute cycle targets, so the step
// sequence, and therefore the summary, is bit-identical to the one-shot
// Measure (pinned by TestMeasureCtxMatchesMeasure). On cancellation the
// context error is returned and the simulation stops at the next chunk
// boundary with its state intact (checkpoint-cancel).
func (h *RunHandle) MeasureCtx(ctx context.Context, warmupCycles, measureCycles uint64, hooks RunHooks) (Summary, error) {
	total := warmupCycles + measureCycles
	start := h.sys.Now()
	ring := h.sys.EpochRing()
	seen := ring.Total()
	epoch0 := seen
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
		done := h.sys.Now() - start
		if done > total {
			done = total
		}
		if hooks.OnProgress != nil {
			hooks.OnProgress(done, total)
		}
		if hooks.OnCheckpoint != nil {
			// After epoch delivery: the checkpoint's epoch count never
			// runs ahead of what OnEpoch observers have seen.
			hooks.OnCheckpoint(Checkpoint{
				Cycles:      done,
				TotalCycles: total,
				Epochs:      ring.Total() - epoch0,
			})
		}
	}
	chunk := h.sys.Config().EpochCycles
	runTo := func(target uint64) error {
		for {
			now := h.sys.Now()
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
			h.sys.Run(step)
			emit()
		}
	}

	if err := runTo(h.sys.Now() + warmupCycles); err != nil {
		return Summary{}, err
	}

	// Measured window: bracket the chunked runs with a registry snapshot
	// and per-core instruction/cycle marks, mirroring what hier.Run does
	// internally for a single window.
	cores := h.sys.Cores()
	insts0 := make([]uint64, len(cores))
	cycles0 := make([]uint64, len(cores))
	for i, c := range cores {
		insts0[i], cycles0[i] = c.Insts(), c.Cycles()
	}
	before := h.sys.Metrics().Snapshot()
	if err := runTo(h.sys.Now() + measureCycles); err != nil {
		return Summary{}, err
	}
	delta := h.sys.Metrics().Snapshot().Delta(before)

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
		Policy:          h.PolicyName(),
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
		Capacity:        h.Capacity(),
		Metrics:         delta,
	}, nil
}
