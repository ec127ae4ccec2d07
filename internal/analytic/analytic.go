// Package analytic is the fast path next to the exact forecast: instead
// of the full simulate→predict iteration of internal/forecast (one
// simulation phase per capacity step, ~20 phases to reach 50% capacity),
// it runs ONE short calibration simulation to measure the young-cache
// operating point (IPC, hit rate, per-frame NVM byte-write rates) and
// then ages the array to the target capacity in a single closed-form
// pass of forecast.AgeFrames. The result is a lifetime and young-IPC
// estimate that costs one calibration instead of a full forecast — and,
// once the calibration is cached, nothing at all.
//
// The model's simplification is explicit: it assumes the per-frame write
// rates observed over the calibration window stay constant for the whole
// device lifetime, where the exact procedure re-measures them each
// capacity step as the shrinking array redistributes traffic. That bias
// is what the error bounds carry: every estimate reports the relative
// error bound its (mix, policy) cell was validated to stay within
// against the full forecast (internal/experiments.AnalyticValidation,
// pinned by the differential accuracy suite).
package analytic

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/forecast"
	"repro/internal/nvm"
)

// ClockHz converts calibration cycles to machine seconds (Table IV:
// 3.5 GHz, the same clock the forecast loop uses).
const ClockHz = 3.5e9

// HorizonSeconds bounds the closed-form aging pass, mirroring the
// forecast loop's MaxPredictSeconds: a configuration whose write traffic
// would not reach the target capacity within 20 years is reported as
// censored rather than aged forever.
const HorizonSeconds = 20 * 12 * forecast.SecondsPerMonth

// Spec is one estimate query: the simulation config plus the calibration
// window and the capacity the lifetime counts down to. It is the
// POST /v1/estimate body (decoded strictly over DefaultSpec).
type Spec struct {
	// Config is the simulation to estimate; omitted fields keep
	// core.DefaultConfig values.
	Config core.Config `json:"config"`
	// WarmupCycles run before the calibration window so the measured
	// rates are steady-state, not cold-cache.
	WarmupCycles uint64 `json:"warmup_cycles"`
	// CalibrationCycles is the measured window the write rates and the
	// young IPC come from.
	CalibrationCycles uint64 `json:"calibration_cycles"`
	// TargetCapacity is the effective-capacity fraction the lifetime runs
	// to (paper: 0.5).
	TargetCapacity float64 `json:"target_capacity"`
}

// DefaultSpec returns the spec every estimate query overlays: the
// default config with a 500k-cycle warm-up, a 2M-cycle calibration
// window and the paper's 50% capacity target.
func DefaultSpec() Spec {
	return Spec{
		Config:            core.DefaultConfig(),
		WarmupCycles:      500_000,
		CalibrationCycles: 2_000_000,
		TargetCapacity:    0.5,
	}
}

// Validate checks the spec beyond Config.Validate's rules.
func (s Spec) Validate() error {
	if err := s.Config.Validate(); err != nil {
		return err
	}
	if s.CalibrationCycles == 0 {
		return fmt.Errorf("estimate spec: calibration_cycles must be positive")
	}
	if s.TargetCapacity <= 0 || s.TargetCapacity >= 1 {
		return fmt.Errorf("estimate spec: target_capacity %v outside (0,1)", s.TargetCapacity)
	}
	return nil
}

// CacheKey content-addresses the spec's calibration: "est-" plus the
// SHA-256 of the canonical JSON of every calibration-affecting input.
// The retired shard count hashes as 0, exactly like JobRequest.CacheKey.
// The prefix keeps estimate artifacts distinguishable from job results
// in the store's flat artifact namespace.
func (s Spec) CacheKey() string {
	canon := s.Config
	canon.Shards = 0
	blob, err := json.Marshal(struct {
		Config      core.Config `json:"config"`
		Warmup      uint64      `json:"warmup_cycles"`
		Calibration uint64      `json:"calibration_cycles"`
		Target      float64     `json:"target_capacity"`
	}{canon, s.WarmupCycles, s.CalibrationCycles, s.TargetCapacity})
	if err != nil {
		blob = []byte(fmt.Sprintf("unhashable:%+v", s))
	}
	sum := sha256.Sum256(blob)
	return "est-" + hex.EncodeToString(sum[:])
}

// Calibration is everything one calibration simulation leaves behind:
// the young operating point, the closed-form lifetime, and the spec
// echo that provenances it. Calibrations are immutable once built and
// JSON-serializable, so the estimator cache, the jobstore artifact and
// the wire response all share one representation.
type Calibration struct {
	Policy string `json:"policy"`
	MixID  int    `json:"mix_id"`

	// YoungIPC and HitRate are the calibration window's means — the
	// young-cache operating point of Fig. 10's left edge.
	YoungIPC float64 `json:"young_ipc"`
	HitRate  float64 `json:"hit_rate"`
	// NVMByteRate is NVM bytes written per second of machine time over
	// the calibration window (the aggregate of the per-frame rates the
	// aging pass consumed).
	NVMByteRate float64 `json:"nvm_byte_rate"`

	// LifetimeSeconds is the closed-form time to TargetCapacity at the
	// calibrated rates; 0 when Censored. Censored marks configurations
	// that never reach the target within HorizonSeconds — SRAM-only
	// configs and policies that barely write NVM. (A bool instead of
	// +Inf: JSON cannot encode infinities.)
	LifetimeSeconds float64 `json:"lifetime_seconds"`
	Censored        bool    `json:"censored"`
	// Redistributed marks lifetimes computed under the
	// uniform-redistribution fallback: the calibration window concentrated
	// its writes on so few frames that frozen per-frame rates could never
	// reach the target capacity, so the aggregate rate was spread
	// uniformly across all frames instead — the closed-form analogue of
	// the traffic redistribution the exact forecast observes as dead
	// frames push insertions elsewhere.
	Redistributed bool `json:"redistributed,omitempty"`

	// Spec echo.
	WarmupCycles      uint64  `json:"warmup_cycles"`
	CalibrationCycles uint64  `json:"calibration_cycles"`
	TargetCapacity    float64 `json:"target_capacity"`
}

// LifetimeMonths converts the lifetime to the paper's month axis.
func (c *Calibration) LifetimeMonths() float64 { return c.LifetimeSeconds / forecast.SecondsPerMonth }

// Calibrate runs the spec's calibration simulation and the closed-form
// aging pass. The procedure mirrors one phase of the forecast loop —
// warm up, reset the per-frame phase counters, measure the window — and
// then, where the forecast would age one capacity step and re-measure,
// ages all the way to the target in a single exact AgeFrames pass at
// the measured rates. Deterministic: same spec, same calibration
// (AgeFrames breaks ties by the stable set-major frame order).
func Calibrate(ctx context.Context, spec Spec) (*Calibration, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h, err := spec.Config.NewRunHandle()
	if err != nil {
		return nil, err
	}
	if spec.WarmupCycles > 0 {
		if _, err := h.MeasureCtx(ctx, 0, spec.WarmupCycles, core.RunHooks{}); err != nil {
			return nil, err
		}
	}
	h.ResetPhase()
	sum, err := h.MeasureCtx(ctx, 0, spec.CalibrationCycles, core.RunHooks{})
	if err != nil {
		return nil, err
	}
	phaseSeconds := float64(spec.CalibrationCycles) / ClockHz
	cal := &Calibration{
		Policy:            sum.Policy,
		MixID:             spec.Config.MixID,
		YoungIPC:          sum.MeanIPC,
		HitRate:           sum.HitRate,
		NVMByteRate:       float64(sum.NVMBytesWritten) / phaseSeconds,
		WarmupCycles:      spec.WarmupCycles,
		CalibrationCycles: spec.CalibrationCycles,
		TargetCapacity:    spec.TargetCapacity,
	}
	frames := h.Frames()
	if len(frames) == 0 {
		cal.Censored = true // SRAM-only: nothing to wear out
		return cal, nil
	}
	rates := make([]float64, len(frames))
	var aggregate float64
	idleCap := 0 // capacity held by frames the window never wrote
	for i, f := range frames {
		rates[i] = float64(f.PhaseWritten()) / phaseSeconds
		aggregate += rates[i]
		if rates[i] == 0 {
			idleCap += f.EffectiveCapacity()
		}
	}
	// Feasibility: frozen per-frame rates can only ever kill frames the
	// window wrote. If the untouched frames alone hold more than the
	// target capacity, the constant-rate model can never reach it — so
	// spread the aggregate rate uniformly across all frames instead, the
	// closed-form analogue of the traffic redistribution the exact
	// forecast observes as dead frames push insertions onto live ones.
	if aggregate > 0 && float64(idleCap)/float64(len(frames)*nvm.DataBytes) > spec.TargetCapacity {
		uniform := aggregate / float64(len(frames))
		for i := range rates {
			rates[i] = uniform
		}
		cal.Redistributed = true
	}
	elapsed, capacity := forecast.AgeFramesAtRates(frames, rates, spec.TargetCapacity, HorizonSeconds)
	if capacity <= spec.TargetCapacity {
		cal.LifetimeSeconds = elapsed
	} else {
		cal.Censored = true
	}
	return cal, nil
}

// EncodeCalibration renders a calibration as its durable artifact bytes.
func EncodeCalibration(c *Calibration) ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// DecodeCalibration rebuilds a calibration from artifact bytes,
// rejecting documents with unknown fields or trailing garbage (a store
// artifact is trusted data, but a truncated or cross-written file must
// fail loudly, not load as zeros).
func DecodeCalibration(data []byte) (*Calibration, error) {
	var c Calibration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("calibration artifact: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("calibration artifact: trailing data after JSON document")
	}
	if c.Policy == "" {
		return nil, fmt.Errorf("calibration artifact: missing policy")
	}
	return &c, nil
}
