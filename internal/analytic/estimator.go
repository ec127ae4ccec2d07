package analytic

import (
	"context"
	"sync"

	"repro/internal/forecast"
)

// Estimate is the wire form of one analytic answer: the young operating
// point, the one-step forecast's lifetime, and the relative error bounds
// the estimator was cross-validated to stay within (DefaultBounds).
// Consumers that rank configs on an estimate must inflate by the
// bounds: two estimates closer than their combined margins are a tie.
type Estimate struct {
	Policy string `json:"policy"`
	MixID  int    `json:"mix_id"`

	YoungIPC    float64 `json:"young_ipc"`
	HitRate     float64 `json:"hit_rate"`
	NVMByteRate float64 `json:"nvm_byte_rate"`

	// LifetimeMonths is 0 when Censored (the config never reaches the
	// target capacity within the 20-year horizon; its lifetime is a
	// lower bound, effectively unbounded for ranking purposes).
	LifetimeMonths float64 `json:"lifetime_months"`
	Censored       bool    `json:"censored"`

	// IPCErrorBound and LifetimeErrorBound are the relative error bounds
	// (|analytic−forecast|/forecast) the estimate carries. The
	// differential accuracy suite fails if a seeded cell ever exceeds
	// its own reported bound.
	IPCErrorBound      float64 `json:"ipc_error_bound"`
	LifetimeErrorBound float64 `json:"lifetime_error_bound"`
}

// Bounds is a pair of relative error bounds.
type Bounds struct {
	IPC      float64 `json:"ipc"`
	Lifetime float64 `json:"lifetime"`
}

// DefaultBounds returns the bounds every estimate carries, fitted by
// cross-validating the analytic estimator against the full forecast
// across the seeded mix × policy matrix (experiments.AnalyticValidation:
// worst observed errors 0.015 IPC on CP_SD mix 4 and 0.49 lifetime on
// LHybrid mix 7) and inflated by a safety margin of ~2.5×. The young-IPC
// bound is tight — the calibration window measures the same young
// system the forecast's first phase does; the lifetime bound carries the
// one-step simplification (the forecast re-measures rates each capacity
// step, the estimate extrapolates the first window). A lifetime bound
// of 1 or more makes an estimate's lower-bounded lifetime non-positive:
// on the lifetime axis an estimate never dominates another config.
func DefaultBounds() Bounds {
	return Bounds{IPC: 0.04, Lifetime: 1.2}
}

// Estimate assembles the wire answer from a calibration under
// DefaultBounds.
func (c *Calibration) Estimate() Estimate {
	b := DefaultBounds()
	return Estimate{
		Policy:             c.Policy,
		MixID:              c.MixID,
		YoungIPC:           c.YoungIPC,
		HitRate:            c.HitRate,
		NVMByteRate:        c.NVMByteRate,
		LifetimeMonths:     c.LifetimeSeconds / forecast.SecondsPerMonth,
		Censored:           c.Censored,
		IPCErrorBound:      b.IPC,
		LifetimeErrorBound: b.Lifetime,
	}
}

// Estimator caches calibrations by spec content address and serves
// estimates from them. The cached path is the sub-millisecond fast path
// POST /v1/estimate pins: an RLock, a map probe and a by-value Estimate
// assembly — zero heap allocations (server.BenchmarkEstimateFastPath
// enforces it). Concurrent misses on the same key collapse into one
// calibration (per-key singleflight); misses on different keys
// calibrate in parallel.
type Estimator struct {
	mu       sync.RWMutex
	cache    map[string]*Calibration
	inflight map[string]*calibrateCall
}

type calibrateCall struct {
	done chan struct{}
	cal  *Calibration
	err  error
}

// NewEstimator builds an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{
		cache:    make(map[string]*Calibration),
		inflight: make(map[string]*calibrateCall),
	}
}

// Lookup serves an estimate and the calibration it came from out of
// the cache; ok is false on a miss. This is the zero-allocation fast
// path.
func (e *Estimator) Lookup(key string) (est Estimate, cal *Calibration, ok bool) {
	e.mu.RLock()
	cal = e.cache[key]
	e.mu.RUnlock()
	if cal == nil {
		return Estimate{}, nil, false
	}
	return cal.Estimate(), cal, true
}

// Put installs an externally obtained calibration (a store artifact) in
// the cache.
func (e *Estimator) Put(key string, cal *Calibration) {
	e.mu.Lock()
	e.cache[key] = cal
	e.mu.Unlock()
}

// Len reports the number of cached calibrations.
func (e *Estimator) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cache)
}

// Do calibrates the spec under per-key singleflight and caches the
// result, keyed by the caller-computed content address. Concurrent
// callers with the same key share one simulation.
func (e *Estimator) Do(ctx context.Context, key string, spec Spec) (*Calibration, error) {
	e.mu.Lock()
	if cal := e.cache[key]; cal != nil {
		e.mu.Unlock()
		return cal, nil
	}
	if c := e.inflight[key]; c != nil {
		e.mu.Unlock()
		select {
		case <-c.done:
			return c.cal, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &calibrateCall{done: make(chan struct{})}
	e.inflight[key] = c
	e.mu.Unlock()

	c.cal, c.err = Calibrate(ctx, spec)
	e.mu.Lock()
	delete(e.inflight, key)
	if c.err == nil {
		e.cache[key] = c.cal
	}
	e.mu.Unlock()
	close(c.done)
	return c.cal, c.err
}
