// Package analytic is the fast path next to the full forecast: the
// forecast loop of internal/forecast run with a single capacity step,
// from the young cache straight to the target capacity. One calibration
// window measures the young operating point (IPC, hit rate, per-frame
// NVM byte-write rates) and one prediction ages the array to the target
// at those rates. The result is a lifetime and young-IPC estimate that
// costs one simulated window instead of a full forecast — and, once the
// calibration is cached, nothing at all.
//
// The model's simplification is the step: the full forecast re-measures
// the rates every few percent of capacity as the shrinking array
// redistributes traffic, the estimate extrapolates the first window. It
// simulates again only where the forecast must too — when every frame
// the window wrote has died above the target, so the next window has to
// show where the traffic went. That bias is what the error bounds carry:
// every estimate reports the relative error bound it was validated to
// stay within against the full forecast
// (internal/experiments.AnalyticValidation, pinned by the differential
// accuracy suite).
package analytic

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/forecast"
)

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

// Calibration is everything one calibration leaves behind: the young
// operating point, the one-step forecast's lifetime, and the spec
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
	// prediction consumed).
	NVMByteRate float64 `json:"nvm_byte_rate"`

	// LifetimeSeconds is the one-step forecast's time to TargetCapacity;
	// 0 when Censored. Censored marks configurations the forecast loop
	// censors — SRAM-only configs and policies whose writes kill no byte
	// within the forecast's 20-year prediction horizon. (A bool instead
	// of +Inf: JSON cannot encode infinities.)
	LifetimeSeconds float64 `json:"lifetime_seconds"`
	Censored        bool    `json:"censored"`

	// Spec echo.
	WarmupCycles      uint64  `json:"warmup_cycles"`
	CalibrationCycles uint64  `json:"calibration_cycles"`
	TargetCapacity    float64 `json:"target_capacity"`
}

// LifetimeMonths converts the lifetime to the paper's month axis.
func (c *Calibration) LifetimeMonths() float64 { return c.LifetimeSeconds / forecast.SecondsPerMonth }

// Calibrate runs the spec's calibration: the forecast loop with one
// capacity step, 1 − TargetCapacity, and without the final window at
// the target that a forecast measures (an estimate reports none). It
// simulates one window where that step reaches the target and one more
// per step that kills every written frame above it. Deterministic: same
// spec, same calibration. A cancelled ctx stops it mid-window.
func Calibrate(ctx context.Context, spec Spec) (*Calibration, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	sys, err := spec.Config.Build()
	if err != nil {
		return nil, err
	}
	cfg := forecast.DefaultConfig()
	cfg.WarmupCycles = spec.WarmupCycles
	cfg.PhaseCycles = spec.CalibrationCycles
	cfg.CapacityStep = 1 - spec.TargetCapacity
	cfg.TargetCapacity = spec.TargetCapacity
	res, err := forecast.Trajectory(ctx, forecast.SystemTarget(ctx, sys), cfg)
	if err != nil {
		return nil, err
	}
	young := res.Points[0]
	cal := &Calibration{
		Policy:            res.Policy,
		MixID:             spec.Config.MixID,
		YoungIPC:          young.MeanIPC,
		HitRate:           young.HitRate,
		NVMByteRate:       young.NVMByteRate,
		LifetimeSeconds:   res.LifetimeSeconds,
		WarmupCycles:      spec.WarmupCycles,
		CalibrationCycles: spec.CalibrationCycles,
		TargetCapacity:    spec.TargetCapacity,
	}
	if math.IsInf(res.LifetimeSeconds, 1) {
		cal.LifetimeSeconds, cal.Censored = 0, true
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
	if err := core.UnmarshalStrict(data, &c); err != nil {
		return nil, fmt.Errorf("calibration artifact: %w", err)
	}
	if c.Policy == "" {
		return nil, fmt.Errorf("calibration artifact: missing policy")
	}
	return &c, nil
}
