// Package forecast implements the paper's aging forecast procedure
// (§V-A, adapted from [15]): it alternates full-hierarchy simulation
// phases, which measure per-frame NVM byte-write rates, with analytic
// prediction phases that advance wall-clock time, wearing out bitcells
// and updating the fault maps, until the NVM part loses half of its
// effective capacity. The output is the temporal evolution of performance
// (IPC), hit rate and capacity — the curves of Figs. 1, 10 and 11.
package forecast

import (
	"container/heap"
	"math"

	"repro/internal/hier"
	"repro/internal/nvm"
)

// SecondsPerMonth converts forecast times to the paper's month axis.
const SecondsPerMonth = 365.25 * 24 * 3600 / 12

// Config controls the forecast loop.
type Config struct {
	// ClockHz is the core clock (Table IV: 3.5 GHz).
	ClockHz float64
	// WarmupCycles are simulated before each measurement window.
	WarmupCycles uint64
	// PhaseCycles is the measured simulation window per phase.
	PhaseCycles uint64
	// CapacityStep is the capacity-fraction drop per prediction phase
	// (e.g. 0.025 resolves the 1.0 -> 0.5 trajectory in 20 phases).
	CapacityStep float64
	// TargetCapacity stops the forecast (paper: 0.5).
	TargetCapacity float64
	// MaxPhases bounds the loop for policies that barely write NVM.
	MaxPhases int
	// MaxPredictSeconds bounds one prediction phase; with no NVM write
	// traffic the capacity would never drop.
	MaxPredictSeconds float64
}

// DefaultConfig returns forecast parameters for the scaled system.
func DefaultConfig() Config {
	return Config{
		ClockHz:           3.5e9,
		WarmupCycles:      2_000_000,
		PhaseCycles:       10_000_000,
		CapacityStep:      0.025,
		TargetCapacity:    0.5,
		MaxPhases:         40,
		MaxPredictSeconds: 20 * 12 * SecondsPerMonth, // 20 years
	}
}

// Point is one sample of the forecast trajectory, taken at the start of a
// simulation phase.
type Point struct {
	TimeSeconds    float64
	Capacity       float64 // NVM effective capacity fraction at measurement
	MeanIPC        float64
	HitRate        float64
	NVMByteRate    float64 // NVM bytes written per second of machine time
	LiveFrames     int
	EntriesDropped int // LLC entries invalidated by aging before this phase
}

// Result is a full forecast trajectory for one policy/workload.
type Result struct {
	Policy          string
	Points          []Point
	LifetimeSeconds float64 // time at which capacity reached the target; +Inf if never
}

// LifetimeMonths converts the lifetime to months (+Inf preserved).
func (r Result) LifetimeMonths() float64 { return r.LifetimeSeconds / SecondsPerMonth }

// Window summarises one measured run window of a forecast target — the
// subset of hier.RunStats the forecast loop consumes.
type Window struct {
	Cycles          uint64
	MeanIPC         float64
	HitRate         float64
	NVMBytesWritten uint64
}

// Target abstracts the simulated system the forecast ages: the
// hierarchy (SystemTarget) or an instrumenting wrapper around it.
// Frames returns the NVM frames the forecast ages, in a stable
// set-major order (nil for SRAM-only configurations); the order matters
// because the aging heap breaks simultaneous-death ties by insertion
// order, so identical frame orders give bit-identical trajectories.
type Target interface {
	// PolicyName labels the result.
	PolicyName() string
	// Run advances the simulation by the given cycles and summarises.
	Run(cycles uint64) Window
	// Frames returns the NVM frames in stable set-major order, or nil.
	Frames() []*nvm.Frame
	// ResetPhase clears the per-frame phase write counters.
	ResetPhase()
	// CapacityFraction is the NVM part's effective capacity (0..1).
	CapacityFraction() float64
	// LiveFrames counts frames that can still hold a block.
	LiveFrames() int
	// InvalidateUnfit drops LLC entries their aged frames can't hold.
	InvalidateUnfit() int
	// AdvanceWearCounter rotates the global wear-leveling counter.
	AdvanceWearCounter(n int)
}

// sysTarget adapts *hier.System to Target.
type sysTarget struct{ sys *hier.System }

// SystemTarget wraps the sequential hierarchy as a forecast target.
func SystemTarget(sys *hier.System) Target { return sysTarget{sys} }

func (t sysTarget) PolicyName() string { return t.sys.LLC().Policy().Name() }

func (t sysTarget) Run(cycles uint64) Window {
	st := t.sys.Run(cycles)
	return Window{
		Cycles:          st.Cycles,
		MeanIPC:         st.MeanIPC,
		HitRate:         st.LLC.HitRate(),
		NVMBytesWritten: st.LLC.NVMBytesWritten,
	}
}

func (t sysTarget) Frames() []*nvm.Frame {
	if arr := t.sys.LLC().Array(); arr != nil {
		return arr.Frames()
	}
	return nil
}

func (t sysTarget) ResetPhase()               { t.sys.LLC().Array().ResetPhase() }
func (t sysTarget) CapacityFraction() float64 { return t.sys.LLC().Array().EffectiveCapacityFraction() }
func (t sysTarget) LiveFrames() int           { return t.sys.LLC().Array().LiveFrames() }
func (t sysTarget) InvalidateUnfit() int      { return t.sys.LLC().InvalidateUnfit() }
func (t sysTarget) AdvanceWearCounter(n int)  { t.sys.LLC().Array().Counter().Advance(n) }

// Run executes the forecast on a sequential system until its LLC's NVM
// capacity reaches cfg.TargetCapacity.
func Run(sys *hier.System, cfg Config) Result {
	return RunTarget(SystemTarget(sys), cfg)
}

// RunTarget executes the forecast loop against any target.
func RunTarget(t Target, cfg Config) Result {
	res := Result{Policy: t.PolicyName(), LifetimeSeconds: math.Inf(1)}
	frames := t.Frames()
	if frames == nil {
		// SRAM-only configuration: a single phase measures steady-state
		// performance; there is nothing to age.
		t.Run(cfg.WarmupCycles)
		st := t.Run(cfg.PhaseCycles)
		res.Points = append(res.Points, Point{
			Capacity: 1, MeanIPC: st.MeanIPC, HitRate: st.HitRate,
		})
		return res
	}

	elapsed := 0.0
	dropped := 0
	for phase := 0; phase < cfg.MaxPhases; phase++ {
		t.Run(cfg.WarmupCycles)
		t.ResetPhase()
		st := t.Run(cfg.PhaseCycles)
		phaseSeconds := float64(st.Cycles) / cfg.ClockHz
		cap := t.CapacityFraction()
		res.Points = append(res.Points, Point{
			TimeSeconds:    elapsed,
			Capacity:       cap,
			MeanIPC:        st.MeanIPC,
			HitRate:        st.HitRate,
			NVMByteRate:    float64(st.NVMBytesWritten) / phaseSeconds,
			LiveFrames:     t.LiveFrames(),
			EntriesDropped: dropped,
		})
		if cap <= cfg.TargetCapacity {
			res.LifetimeSeconds = elapsed
			break
		}
		stop := cap - cfg.CapacityStep
		if stop < cfg.TargetCapacity {
			stop = cfg.TargetCapacity
		}
		dt, newCap := AgeFrames(frames, phaseSeconds, stop, cfg.MaxPredictSeconds)
		elapsed += dt
		dropped = t.InvalidateUnfit()
		// Rotate the global wear-leveling counter, as hardware does over
		// long periods (§III-B1).
		t.AdvanceWearCounter(7)
		if newCap <= cfg.TargetCapacity {
			res.LifetimeSeconds = elapsed
			// One final measurement at the target capacity.
			t.Run(cfg.WarmupCycles)
			t.ResetPhase()
			st := t.Run(cfg.PhaseCycles)
			res.Points = append(res.Points, Point{
				TimeSeconds: elapsed, Capacity: newCap, MeanIPC: st.MeanIPC,
				HitRate:    st.HitRate,
				LiveFrames: t.LiveFrames(), EntriesDropped: dropped,
			})
			break
		}
		if dt >= cfg.MaxPredictSeconds {
			// Write traffic too low to ever reach the target.
			break
		}
	}
	return res
}

// frameAger tracks one frame's analytic aging between simulation phases.
type frameAger struct {
	f     *nvm.Frame
	rate  float64 // bytes written per second (from the last phase)
	lastT float64 // time up to which wear has been applied
}

// nextDeath returns the absolute time of the frame's next byte death, or
// +Inf when it will never die at the current rate.
func (fa *frameAger) nextDeath() float64 {
	if fa.f.Dead() || fa.rate <= 0 {
		return math.Inf(1)
	}
	live := float64(fa.f.LiveBytes())
	need := (fa.f.NextLimit() - fa.f.Wear()) * live / fa.rate
	if need < 0 {
		need = 0
	}
	return fa.lastT + need
}

// advanceTo applies wear up to absolute time T, handling the rate-per-byte
// increase as bytes die (the frame's byte traffic concentrates on the
// remaining live bytes).
func (fa *frameAger) advanceTo(T float64) {
	for !fa.f.Dead() && fa.rate > 0 && fa.lastT < T {
		d := fa.nextDeath()
		if d > T {
			live := float64(fa.f.LiveBytes())
			fa.f.AddWear(fa.rate * (T - fa.lastT) / live)
			break
		}
		fa.f.AdvanceTo(fa.f.NextLimit())
		fa.lastT = d
	}
	fa.lastT = T
}

// event queue over frame death times.
type ageEvent struct {
	t   float64
	idx int
}

type ageHeap []ageEvent

func (h ageHeap) Len() int            { return len(h) }
func (h ageHeap) Less(i, j int) bool  { return h[i].t < h[j].t }
func (h ageHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *ageHeap) Push(x interface{}) { *h = append(*h, x.(ageEvent)) }
func (h *ageHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Age advances the array's wear analytically; see AgeFrames.
func Age(arr *nvm.Array, phaseSeconds, stopCapacity, maxSeconds float64) (elapsed, capacity float64) {
	return AgeFrames(arr.Frames(), phaseSeconds, stopCapacity, maxSeconds)
}

// AgeFrames advances the frames' wear analytically, assuming each frame
// keeps receiving bytes at the rate observed over the last simulation
// phase (PhaseWritten / phaseSeconds), until their combined effective
// capacity fraction falls to stopCapacity or maxSeconds elapse. It
// returns the elapsed time and the resulting capacity fraction.
//
// The computation is exact: within a frame, wear accrues linearly at
// rate/liveBytes and jumps discretely as bytes die; across frames, a
// priority queue processes byte deaths in global time order, breaking
// simultaneous-death ties by the frames' slice order — so a fixed frame
// order gives a bit-identical trajectory.
func AgeFrames(frames []*nvm.Frame, phaseSeconds, stopCapacity, maxSeconds float64) (elapsed, capacity float64) {
	rates := make([]float64, len(frames))
	for i, f := range frames {
		rates[i] = float64(f.PhaseWritten()) / phaseSeconds
	}
	return AgeFramesAtRates(frames, rates, stopCapacity, maxSeconds)
}

// AgeFramesAtRates is AgeFrames with the per-frame byte rates supplied
// by the caller instead of read from the frames' phase counters. The
// analytic fast path (internal/analytic) uses it to age under model
// rates — e.g. the uniform-redistribution fallback for policies whose
// calibration window concentrates writes on too few frames to ever
// reach the target capacity at frozen per-frame rates.
func AgeFramesAtRates(frames []*nvm.Frame, rates []float64, stopCapacity, maxSeconds float64) (elapsed, capacity float64) {
	agers := make([]frameAger, len(frames))
	h := make(ageHeap, 0, len(frames))
	totalUnits := float64(len(frames) * nvm.DataBytes)
	capUnits := 0
	for i, f := range frames {
		agers[i] = frameAger{f: f, rate: rates[i]}
		capUnits += f.EffectiveCapacity()
		if d := agers[i].nextDeath(); !math.IsInf(d, 1) {
			h = append(h, ageEvent{d, i})
		}
	}
	heap.Init(&h)

	T := 0.0
	for float64(capUnits)/totalUnits > stopCapacity && h.Len() > 0 {
		ev := heap.Pop(&h).(ageEvent)
		if ev.t > maxSeconds {
			T = maxSeconds
			h = h[:0]
			break
		}
		fa := &agers[ev.idx]
		before := fa.f.EffectiveCapacity()
		fa.f.AdvanceTo(fa.f.NextLimit())
		fa.lastT = ev.t
		capUnits -= before - fa.f.EffectiveCapacity()
		T = ev.t
		if d := fa.nextDeath(); !math.IsInf(d, 1) {
			heap.Push(&h, ageEvent{d, ev.idx})
		}
	}
	if h.Len() == 0 && float64(capUnits)/totalUnits > stopCapacity {
		// No more deaths possible at these rates within the horizon.
		if T < maxSeconds {
			T = maxSeconds
		}
	}
	// Apply partial wear to every frame up to T.
	for i := range agers {
		agers[i].advanceTo(T)
	}
	return T, capacityOfFrames(frames)
}

// capacityOfFrames is the effective capacity fraction of a frame slice,
// computed exactly like nvm.Array.EffectiveCapacityFraction (integer sum,
// one division — bit-identical however the frames are partitioned).
func capacityOfFrames(frames []*nvm.Frame) float64 {
	if len(frames) == 0 {
		return 0
	}
	have := 0
	for _, f := range frames {
		have += f.EffectiveCapacity()
	}
	return float64(have) / float64(len(frames)*nvm.DataBytes)
}
