// Package forecast implements the paper's aging forecast procedure
// (§V-A, adapted from [15]): it alternates full-hierarchy simulation
// phases, which measure per-frame NVM byte-write rates, with analytic
// prediction phases that advance wall-clock time, wearing out bitcells
// and updating the fault maps, until the NVM part loses half of its
// effective capacity. The output is the temporal evolution of performance
// (IPC), hit rate and capacity — the curves of Figs. 1, 10 and 11.
package forecast

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/hier"
	"repro/internal/nvm"
)

// SecondsPerMonth converts forecast times to the paper's month axis.
const SecondsPerMonth = 365.25 * 24 * 3600 / 12

// Config controls the forecast loop.
type Config struct {
	// ClockHz is the core clock (Table IV: 3.5 GHz).
	ClockHz float64
	// WarmupCycles are simulated once, before the first measurement
	// window; later windows follow on the warm system. RunTarget's
	// window at the target capacity warms up again.
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
// set-major order (nil for SRAM-only configurations); aging does not
// depend on that order (see AgeFrames).
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
type sysTarget struct {
	ctx context.Context
	sys *hier.System
}

// SystemTarget wraps the sequential hierarchy as a forecast target whose
// windows stop at the first epoch close after ctx is cancelled; pass
// Trajectory the same ctx, which then returns its error.
func SystemTarget(ctx context.Context, sys *hier.System) Target { return sysTarget{ctx, sys} }

func (t sysTarget) PolicyName() string { return t.sys.LLC().Policy().Name() }

func (t sysTarget) Run(cycles uint64) Window {
	st, err := t.sys.RunCtx(t.ctx, cycles, nil)
	if err != nil {
		return Window{} // Trajectory returns ctx's error
	}
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
	return RunTarget(SystemTarget(context.Background(), sys), cfg)
}

// RunTarget executes the forecast loop (Trajectory) against any target
// and, when aging reached the target capacity, measures one final window
// there.
func RunTarget(t Target, cfg Config) Result {
	res, _ := Trajectory(context.Background(), t, cfg)
	if math.IsInf(res.LifetimeSeconds, 1) || res.Points[len(res.Points)-1].Capacity <= cfg.TargetCapacity {
		return res
	}
	capacity := t.CapacityFraction()
	dropped := settle(t)
	t.Run(cfg.WarmupCycles)
	t.ResetPhase()
	st := t.Run(cfg.PhaseCycles)
	res.Points = append(res.Points, Point{
		TimeSeconds: res.LifetimeSeconds, Capacity: capacity, MeanIPC: st.MeanIPC,
		HitRate:    st.HitRate,
		LiveFrames: t.LiveFrames(), EntriesDropped: dropped,
	})
	return res
}

// Trajectory is the forecast loop. It warms the target up once, before
// the first window: the system stays warm from one window to the next,
// since a prediction only drops the LLC entries its aged frames can no
// longer hold, and the next window refills them. Each phase measures one
// window, which yields a trajectory point and the per-frame byte rates;
// a prediction then ages the frames at those rates by one CapacityStep.
// The loop records the lifetime and returns as soon as a prediction
// reaches TargetCapacity, without measuring the aged system (RunTarget
// does). A prediction whose written frames all die above its stop
// capacity is not the end: the next phase measures where their traffic
// went. The lifetime stays +Inf (censored) when a prediction kills no
// byte, when the next death lies past MaxPredictSeconds, or after
// MaxPhases phases. The only error is ctx's, checked after every window.
func Trajectory(ctx context.Context, t Target, cfg Config) (Result, error) {
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
		return res, ctx.Err()
	}

	elapsed := 0.0
	dropped := 0
	for phase := 0; phase < cfg.MaxPhases; phase++ {
		if phase == 0 {
			t.Run(cfg.WarmupCycles)
		}
		t.ResetPhase()
		st := t.Run(cfg.PhaseCycles)
		if err := ctx.Err(); err != nil {
			return res, err
		}
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
		if newCap == cap {
			break // no byte died: the traffic never reaches the target
		}
		elapsed += dt
		if newCap <= cfg.TargetCapacity {
			res.LifetimeSeconds = elapsed
			break
		}
		if dt >= cfg.MaxPredictSeconds {
			break // the next death lies past the horizon
		}
		dropped = settle(t)
	}
	return res, nil
}

// settle brings the simulated system in line with a prediction: it drops
// the LLC entries their aged frames can no longer hold and rotates the
// global wear-leveling counter, as hardware does over long periods
// (§III-B1). It returns the number of entries dropped.
func settle(t Target) int {
	dropped := t.InvalidateUnfit()
	t.AdvanceWearCounter(7)
	return dropped
}

// frameAger tracks one frame's analytic aging between simulation phases.
type frameAger struct {
	f     *nvm.Frame
	rate  float64 // bytes written per second (from the last phase)
	lastT float64 // time up to which wear has been applied
	link  int32   // the next frame in its deathQueue bucket, -1 at the end
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

// die applies the frame's next byte death, due at d = nextDeath().
func (fa *frameAger) die(d float64) {
	fa.f.AdvanceTo(fa.f.NextLimit())
	fa.lastT = d
}

// advanceTo applies wear up to absolute time T, handling the rate-per-byte
// increase as bytes die (the frame's byte traffic concentrates on the
// remaining live bytes). Every death at or before T is applied, also
// when the frame already stands at T, so the result does not depend on
// which of those deaths AgeFrames committed before it found T.
func (fa *frameAger) advanceTo(T float64) {
	for !fa.f.Dead() && fa.rate > 0 {
		d := fa.nextDeath()
		if d > T {
			live := float64(fa.f.LiveBytes())
			fa.f.AddWear(fa.rate * (T - fa.lastT) / live)
			break
		}
		fa.die(d)
	}
	fa.lastT = T
}

// A death time's bucket key is its float bits cut to the exponent and
// the top keyBits bits of the mantissa, so a bucket spans 1/16 of an
// octave and the keys of positive times grow with the times.
const (
	keyBits  = 4
	keyShift = 52 - keyBits
	oneKey   = 0x3FF0000000000000 >> keyShift // the key of 1.0
	// fanout is the number of sub-ranges one stopTime pass splits its
	// range of float bits into.
	fanoutBits = 8
	fanout     = 1 << fanoutBits
)

// deathQueue is a monotone bucket queue of frame deaths. Bucket 0 holds
// the deaths before 1 s, the last bucket (beyond) those after top, and
// every bucket between one key's deaths. Each frame with a death to come
// is linked, through frameAger.link, into the bucket of its next death.
// AgeFrames takes the buckets in key order, so it only ever links a
// frame into a later bucket.
type deathQueue struct {
	agers []frameAger
	heads []int32 // the first frame of each bucket, -1 when empty
	top   float64 // the latest death time kept out of the beyond bucket
	// capUnits is the frames' summed EffectiveCapacity; aging stops
	// when capUnits/totalUnits falls to stop.
	capUnits         int
	totalUnits, stop float64
}

// key returns the bucket of a death at time d.
func (q *deathQueue) key(d float64) int {
	if !(d <= q.top) {
		return len(q.heads) - 1
	}
	return bucketOf(d)
}

// bucketOf returns the bucket of a time d at most top.
func bucketOf(d float64) int {
	if d < 1 {
		return 0
	}
	return int(math.Float64bits(d)>>keyShift) - oneKey + 1
}

// bucketBits returns the range of float bits, both ends included, of the
// times in bucket b below beyond.
func bucketBits(b int) (lo, hi uint64) {
	if b == 0 {
		return 0, oneKey<<keyShift - 1
	}
	lo = uint64(b-1+oneKey) << keyShift
	return lo, lo + 1<<keyShift - 1
}

// push links frame i into the bucket of its next death d; a frame
// without one stays out of the queue.
func (q *deathQueue) push(i int, d float64) {
	if math.IsInf(d, 1) {
		return
	}
	k := q.key(d)
	q.agers[i].link = q.heads[k]
	q.heads[k] = int32(i)
}

// above reports whether the capacity stays above the stop after a drop
// of drop units.
func (q *deathQueue) above(drop int) bool {
	return float64(q.capUnits-drop)/q.totalUnits > q.stop
}

// bucketCap is the summed EffectiveCapacity of bucket b's frames: no set
// of its deaths drops more.
func (q *deathQueue) bucketCap(b int) int {
	c := 0
	for i := q.heads[b]; i >= 0; i = q.agers[i].link {
		c += q.agers[i].f.EffectiveCapacity()
	}
	return c
}

// commit applies every death of bucket b, one frame at a time, and
// links each frame into the bucket of the death after them. It returns
// the latest of those deaths' times.
func (q *deathQueue) commit(b int) (last float64) {
	i := q.heads[b]
	q.heads[b] = -1
	for i >= 0 {
		fa := &q.agers[i]
		next := fa.link
		before := fa.f.EffectiveCapacity()
		d := fa.nextDeath()
		for ; q.key(d) == b; d = fa.nextDeath() {
			fa.die(d)
			last = max(last, d)
		}
		q.capUnits -= before - fa.f.EffectiveCapacity()
		q.push(int(i), d)
		i = next
	}
	return last
}

// scan runs bucket b's deaths at times whose bits are at most hi on its
// frames and then restores the frames, so it changes nothing. It adds
// each such death's capacity drop to hist[(bits-lo)>>shift] and returns
// the drop of the deaths below lo.
func (q *deathQueue) scan(b int, lo, hi uint64, shift uint, hist *[fanout]int) (below int) {
	*hist = [fanout]int{}
	for i := q.heads[b]; i >= 0; i = q.agers[i].link {
		fa := &q.agers[i]
		saved, lastT := *fa.f, fa.lastT
		c := fa.f.EffectiveCapacity()
		for d := fa.nextDeath(); q.key(d) == b; d = fa.nextDeath() {
			x := math.Float64bits(d)
			if x > hi {
				break
			}
			fa.die(d)
			drop := c - fa.f.EffectiveCapacity()
			c -= drop
			if x < lo {
				below += drop
			} else {
				hist[(x-lo)>>shift] += drop
			}
		}
		fa.f.Restore(saved)
		fa.lastT = lastT
	}
	return below
}

// stopTime returns the first death time in bucket b at which the
// capacity reaches the stop, or ok false when all of b's deaths leave it
// above. It leaves the frames as they were. Each scan splits the range
// of float bits that holds the answer into fanout sub-ranges and keeps
// the first one whose deaths, with all before them, reach the stop,
// until the range is one float: a bucket takes six scans, bucket 0
// eight.
func (q *deathQueue) stopTime(b int) (t float64, ok bool) {
	lo, hi := bucketBits(b)
	var hist [fanout]int
	for {
		shift := uint(max(bits.Len64(hi-lo)-fanoutBits, 0))
		drop := q.scan(b, lo, hi, shift, &hist)
		j := 0
		for ; j < fanout; j++ {
			if drop += hist[j]; !q.above(drop) {
				break
			}
		}
		if j == fanout {
			// Only the first scan, of the whole bucket, gets here:
			// each later range holds the stop.
			return 0, false
		}
		lo += uint64(j) << shift
		hi = min(hi, lo+1<<shift-1)
		if lo == hi {
			return math.Float64frombits(lo), true
		}
	}
}

// AgeFrames advances the frames' wear analytically, assuming each frame
// keeps receiving bytes at the rate observed over the last simulation
// phase (PhaseWritten / phaseSeconds). It stops when their combined
// effective capacity fraction falls to stopCapacity, when no frame has a
// byte left to lose at its rate, or when the next death lies past
// maxSeconds. It returns the elapsed time — the last death's time in the
// second case, maxSeconds in the third — and the resulting capacity
// fraction.
//
// The computation is exact: within a frame, wear accrues linearly at
// rate/liveBytes and jumps discretely as bytes die. A frame's deaths
// depend on that frame alone, and the stop time is the first death time
// at which the capacity reaches stopCapacity, whichever deaths tied there
// came first; the closing pass then applies every death up to it. So the
// deaths need not be taken in global time order, only bucket by bucket:
// a deathQueue orders the buckets, and within a bucket each frame runs
// through its deaths there in one go, reading its limits in order. A
// bucket whose deaths cannot bring the capacity to the stop is committed
// at once; the one that does is run read-only by stopTime, which finds
// the stop time exactly. Neither the frames' order nor the order within
// a bucket changes the result.
//
// It allocates two slices, the agers and the bucket heads, and nothing
// per byte death.
func AgeFrames(frames []*nvm.Frame, phaseSeconds, stopCapacity, maxSeconds float64) (elapsed, capacity float64) {
	top := maxSeconds
	if !(top < math.MaxFloat64) {
		top = math.MaxFloat64 // +Inf and NaN cut no death off
	}
	q := deathQueue{
		agers:      make([]frameAger, len(frames)),
		heads:      make([]int32, bucketOf(top)+2), // up to top's, and beyond
		top:        top,
		totalUnits: float64(len(frames) * nvm.DataBytes),
		stop:       stopCapacity,
	}
	for k := range q.heads {
		q.heads[k] = -1
	}
	for i, f := range frames {
		q.agers[i] = frameAger{f: f, rate: float64(f.PhaseWritten()) / phaseSeconds}
		q.capUnits += f.EffectiveCapacity()
		q.push(i, q.agers[i].nextDeath())
	}

	T := 0.0
	beyond := len(q.heads) - 1
	for b := range q.heads {
		if !q.above(0) {
			break
		}
		if q.heads[b] < 0 {
			continue
		}
		if b == beyond {
			T = maxSeconds
			break
		}
		if !q.above(q.bucketCap(b)) {
			if t, ok := q.stopTime(b); ok {
				T = t
				break
			}
		}
		T = q.commit(b)
	}
	// Apply partial wear to every frame up to T.
	for i := range q.agers {
		q.agers[i].advanceTo(T)
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
