// Package faultinject drives deterministic fault-injection campaigns
// against the NVM data array and the trace reader. The paper evaluates
// insertion policies on caches that keep degrading over their lifetime
// (§III-B); this package produces that degradation on demand — stuck-at
// byte faults, whole-frame kills, accelerated wear, and region-targeted
// bursts — from a declarative, seedable campaign spec so any degraded
// state is replayable bit-for-bit.
package faultinject

import (
	"errors"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/nvm"
	"repro/internal/stats"
)

// Kind names one class of injected fault.
type Kind string

// Fault kinds a campaign step can apply.
const (
	// StuckBytes disables Count randomly chosen live bytes (stuck-at
	// hard faults) across the step's region.
	StuckBytes Kind = "stuck_bytes"
	// KillFrames disables Count randomly chosen live frames outright.
	KillFrames Kind = "kill_frames"
	// WearMultiplier advances every region frame's shared wear level to
	// Mult x the endurance-model mean (no-op for frames already past it),
	// letting the frame's own sampled limits decide which bytes die.
	WearMultiplier Kind = "wear_multiplier"
	// ToCapacity kills random live frames in the region until the whole
	// array's effective capacity fraction falls to Target or below.
	ToCapacity Kind = "to_capacity"
)

// Step is one declarative campaign action. The zero region ([0,0) sets
// and ways) means the whole array. SetHi/WayHi are exclusive bounds.
type Step struct {
	Kind   Kind    `json:"kind"`
	Count  int     `json:"count,omitempty"`  // stuck_bytes, kill_frames
	Mult   float64 `json:"mult,omitempty"`   // wear_multiplier
	Target float64 `json:"target,omitempty"` // to_capacity
	SetLo  int     `json:"set_lo,omitempty"`
	SetHi  int     `json:"set_hi,omitempty"`
	WayLo  int     `json:"way_lo,omitempty"`
	WayHi  int     `json:"way_hi,omitempty"`
}

// Spec is a full campaign: a seed and an ordered step list. Equal specs
// applied to identically built arrays produce identical fault states.
type Spec struct {
	Seed  uint64 `json:"seed"`
	Steps []Step `json:"steps"`
}

// Validate rejects malformed steps before any fault is applied.
func (s Spec) Validate() error {
	var errs []error
	for i, st := range s.Steps {
		if err := st.validate(); err != nil {
			errs = append(errs, fmt.Errorf("step %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

func (st Step) validate() error {
	switch st.Kind {
	case StuckBytes, KillFrames:
		if st.Count <= 0 {
			return fmt.Errorf("%s: count %d must be positive", st.Kind, st.Count)
		}
	case WearMultiplier:
		if st.Mult <= 0 {
			return fmt.Errorf("%s: mult %g must be positive", st.Kind, st.Mult)
		}
	case ToCapacity:
		if st.Target < 0 || st.Target >= 1 {
			return fmt.Errorf("%s: target %g outside [0,1)", st.Kind, st.Target)
		}
	default:
		return fmt.Errorf("unknown kind %q", st.Kind)
	}
	if st.SetLo < 0 || st.WayLo < 0 || st.SetHi < 0 || st.WayHi < 0 {
		return fmt.Errorf("%s: negative region bound", st.Kind)
	}
	if (st.SetHi != 0 && st.SetHi <= st.SetLo) || (st.WayHi != 0 && st.WayHi <= st.WayLo) {
		return fmt.Errorf("%s: empty region", st.Kind)
	}
	return nil
}

// ParseSpec decodes and validates a JSON campaign spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := core.UnmarshalStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("faultinject: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, fmt.Errorf("faultinject: invalid spec: %w", err)
	}
	return s, nil
}

// LoadSpec reads and validates a campaign spec from a JSON file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("faultinject: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// CapacityRamp builds a spec that degrades an array in even capacity
// steps from just below `from` down to `to` (inclusive), e.g.
// CapacityRamp(seed, 1.0, 0.5, 0.05) targets 0.95, 0.90, ... 0.50. The
// faultstudy command uses it to sample a degradation curve.
func CapacityRamp(seed uint64, from, to, step float64) Spec {
	s := Spec{Seed: seed}
	if step <= 0 {
		return s
	}
	for i := 1; ; i++ {
		t := from - float64(i)*step
		if t < to-1e-9 {
			break
		}
		s.Steps = append(s.Steps, Step{Kind: ToCapacity, Target: t})
	}
	return s
}

// StepResult records what one applied step did to the array.
type StepResult struct {
	Index         int     // position in Spec.Steps
	Kind          Kind    // step kind, echoed for reporting
	BytesDisabled int     // bytes newly disabled by this step
	FramesKilled  int     // frames newly dead after this step
	Capacity      float64 // array effective capacity fraction after
	LiveFrames    int     // live frames after
}

// Campaign applies a spec to an array one step at a time, so callers can
// interleave measurements between degradation steps.
type Campaign struct {
	arr  *nvm.Array
	rng  *stats.RNG
	spec Spec
	pos  int
}

// NewCampaign validates the spec and binds it to an array.
func NewCampaign(arr *nvm.Array, spec Spec) (*Campaign, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("faultinject: %w", err)
	}
	return &Campaign{arr: arr, rng: stats.NewRNG(spec.Seed), spec: spec}, nil
}

// Remaining returns the number of steps not yet applied.
func (c *Campaign) Remaining() int { return len(c.spec.Steps) - c.pos }

// Next applies the next step and reports what it did; ok is false when
// the campaign is exhausted.
func (c *Campaign) Next() (res StepResult, ok bool) {
	if c.pos >= len(c.spec.Steps) {
		return StepResult{}, false
	}
	st := c.spec.Steps[c.pos]
	res = StepResult{Index: c.pos, Kind: st.Kind}
	c.pos++
	deadBefore := c.arr.Sets()*c.arr.Ways() - c.arr.LiveFrames()
	switch st.Kind {
	case StuckBytes:
		res.BytesDisabled = c.stuckBytes(st)
	case KillFrames:
		res.BytesDisabled = c.killFrames(st, func(killed int) bool { return killed < st.Count })
	case WearMultiplier:
		res.BytesDisabled = c.wearMultiplier(st)
	case ToCapacity:
		res.BytesDisabled = c.killFrames(st, func(int) bool {
			return c.arr.EffectiveCapacityFraction() > st.Target
		})
	}
	res.FramesKilled = c.arr.Sets()*c.arr.Ways() - c.arr.LiveFrames() - deadBefore
	res.Capacity = c.arr.EffectiveCapacityFraction()
	res.LiveFrames = c.arr.LiveFrames()
	return res, true
}

// Run applies every remaining step.
func (c *Campaign) Run() []StepResult {
	var out []StepResult
	for {
		res, ok := c.Next()
		if !ok {
			return out
		}
		out = append(out, res)
	}
}

// region resolves a step's bounds against the array geometry.
func (c *Campaign) region(st Step) (setLo, setHi, wayLo, wayHi int) {
	setLo, setHi = st.SetLo, st.SetHi
	wayLo, wayHi = st.WayLo, st.WayHi
	if setHi == 0 || setHi > c.arr.Sets() {
		setHi = c.arr.Sets()
	}
	if wayHi == 0 || wayHi > c.arr.Ways() {
		wayHi = c.arr.Ways()
	}
	if setLo > setHi {
		setLo = setHi
	}
	if wayLo > wayHi {
		wayLo = wayHi
	}
	return
}

func (c *Campaign) frameAt(st Step, setLo, setHi, wayLo, wayHi int) *nvm.Frame {
	set := setLo + c.rng.Intn(setHi-setLo)
	way := wayLo + c.rng.Intn(wayHi-wayLo)
	return c.arr.Frame(set, way)
}

// stuckBytes disables st.Count live bytes at random positions in the
// region. The attempt budget bounds the walk on nearly-saturated
// regions; the shortfall shows up in the StepResult.
func (c *Campaign) stuckBytes(st Step) int {
	setLo, setHi, wayLo, wayHi := c.region(st)
	if setHi == setLo || wayHi == wayLo {
		return 0
	}
	disabled := 0
	for attempts := 0; disabled < st.Count && attempts < 64*st.Count+1024; attempts++ {
		f := c.frameAt(st, setLo, setHi, wayLo, wayHi)
		if f.Dead() {
			continue
		}
		i := c.rng.Intn(nvm.FrameBytes)
		if f.FaultMap().Get(i) {
			continue
		}
		f.InjectFault(i)
		disabled++
	}
	return disabled
}

// killFrames disables random live region frames while more(killed)
// holds, returning the number of bytes the kills took down.
func (c *Campaign) killFrames(st Step, more func(killed int) bool) int {
	setLo, setHi, wayLo, wayHi := c.region(st)
	if setHi == setLo || wayHi == wayLo {
		return 0
	}
	live := 0
	for s := setLo; s < setHi; s++ {
		for w := wayLo; w < wayHi; w++ {
			if !c.arr.Frame(s, w).Dead() {
				live++
			}
		}
	}
	killed, bytes := 0, 0
	for live > 0 && more(killed) {
		f := c.frameAt(st, setLo, setHi, wayLo, wayHi)
		if f.Dead() {
			continue
		}
		bytes += f.LiveBytes()
		f.Disable()
		killed++
		live--
	}
	return bytes
}

// wearMultiplier fast-forwards every region frame's wear to Mult x the
// endurance-model mean, returning the number of bytes that died.
func (c *Campaign) wearMultiplier(st Step) int {
	setLo, setHi, wayLo, wayHi := c.region(st)
	target := st.Mult * c.arr.Model().Mean
	died := 0
	for s := setLo; s < setHi; s++ {
		for w := wayLo; w < wayHi; w++ {
			died += c.arr.Frame(s, w).AdvanceTo(target)
		}
	}
	return died
}
