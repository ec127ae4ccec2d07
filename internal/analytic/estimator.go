package analytic

import (
	"context"
	"sync"

	"repro/internal/forecast"
)

// Estimate is the wire form of one analytic answer: the young operating
// point, the closed-form lifetime, and the relative error bounds the
// estimator was validated to stay within for this (policy, mix) cell.
// Consumers that rank or screen on an estimate must inflate by the
// bounds — the sweep planner keeps any config another config does not
// dominate by more than the combined margins.
type Estimate struct {
	Policy string `json:"policy"`
	MixID  int    `json:"mix_id"`

	YoungIPC    float64 `json:"young_ipc"`
	HitRate     float64 `json:"hit_rate"`
	NVMByteRate float64 `json:"nvm_byte_rate"`

	// LifetimeMonths is 0 when Censored (the config never reaches the
	// target capacity within the 20-year horizon; its lifetime is a
	// lower bound, effectively unbounded for ranking purposes).
	// Redistributed marks the uniform-redistribution fallback model (see
	// Calibration.Redistributed); it travels with the wider lifetime
	// bound below.
	LifetimeMonths float64 `json:"lifetime_months"`
	Censored       bool    `json:"censored"`
	Redistributed  bool    `json:"redistributed,omitempty"`

	// IPCErrorBound and LifetimeErrorBound are the relative error bounds
	// (|analytic−forecast|/forecast) this cell's estimates were
	// cross-validated to respect. The differential accuracy suite fails
	// if a seeded cell ever exceeds its own reported bound.
	IPCErrorBound      float64 `json:"ipc_error_bound"`
	LifetimeErrorBound float64 `json:"lifetime_error_bound"`
}

// Bounds is one cell's relative error bounds.
type Bounds struct {
	IPC      float64 `json:"ipc"`
	Lifetime float64 `json:"lifetime"`
}

// DefaultBounds returns the global fallback bounds, fitted by
// cross-validating the analytic estimator against the full forecast
// across the seeded mix × policy matrix (experiments.AnalyticValidation,
// worst observed errors 0.021 IPC / 0.153 lifetime over the BH, LHybrid
// and CP_SD cells that age without the redistribution fallback) and
// inflated by a safety margin of ~2.5×. The young-IPC bound is tight —
// the calibration window measures the same young system the forecast's
// first phase does; the lifetime bound carries the constant-rate
// simplification (the forecast re-measures rates each capacity step,
// the analytic pass extrapolates the first window).
func DefaultBounds() Bounds {
	return Bounds{IPC: 0.06, Lifetime: 0.4}
}

// RedistributedLifetimeBound is the lifetime error bound reported by
// estimates whose calibration used the uniform-redistribution fallback
// (Calibration.Redistributed). The fallback is a coarser model — cross-
// validation observes errors up to ~0.48 on those cells — so its bound
// is deliberately above 1: a relative margin ≥ 1 makes the point's
// lower-bounded lifetime non-positive, which means a redistributed
// estimate can never dominate another config on the lifetime axis (and
// is itself protected by the same inflation). Redistributed lifetimes
// inform, they do not screen.
const RedistributedLifetimeBound = 1.2

// cellKey identifies one (policy, mix) bounds cell.
type cellKey struct {
	policy string
	mix    int
}

// BoundsTable maps (policy, mix) cells to their validated error bounds,
// falling back to a default for cells never cross-validated. The table
// is immutable after construction (Set during setup only) — lookups are
// concurrent and allocation-free.
type BoundsTable struct {
	fallback Bounds
	cells    map[cellKey]Bounds
}

// NewBoundsTable builds a table over the given fallback.
func NewBoundsTable(fallback Bounds) *BoundsTable {
	return &BoundsTable{fallback: fallback, cells: make(map[cellKey]Bounds)}
}

// Set records one cell's bounds. Not safe to call concurrently with
// lookups — populate the table before sharing it.
func (t *BoundsTable) Set(policy string, mix int, b Bounds) {
	t.cells[cellKey{policy, mix}] = b
}

// For returns the bounds for a cell, or the fallback.
func (t *BoundsTable) For(policy string, mix int) Bounds {
	if b, ok := t.cells[cellKey{policy, mix}]; ok {
		return b
	}
	return t.fallback
}

// Estimate assembles the wire answer from a calibration and its bounds.
// A redistributed calibration widens its own lifetime bound to at least
// RedistributedLifetimeBound — the bound travels with the model that
// produced the number, not just the (policy, mix) cell.
func (c *Calibration) Estimate(b Bounds) Estimate {
	if c.Redistributed && b.Lifetime < RedistributedLifetimeBound {
		b.Lifetime = RedistributedLifetimeBound
	}
	return Estimate{
		Policy:             c.Policy,
		MixID:              c.MixID,
		YoungIPC:           c.YoungIPC,
		HitRate:            c.HitRate,
		NVMByteRate:        c.NVMByteRate,
		LifetimeMonths:     c.LifetimeSeconds / forecast.SecondsPerMonth,
		Censored:           c.Censored,
		Redistributed:      c.Redistributed,
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
	bounds *BoundsTable

	mu       sync.RWMutex
	cache    map[string]*Calibration
	inflight map[string]*calibrateCall
}

type calibrateCall struct {
	done chan struct{}
	cal  *Calibration
	err  error
}

// NewEstimator builds an estimator over a bounds table (nil selects
// DefaultBounds for every cell).
func NewEstimator(bounds *BoundsTable) *Estimator {
	if bounds == nil {
		bounds = NewBoundsTable(DefaultBounds())
	}
	return &Estimator{
		bounds:   bounds,
		cache:    make(map[string]*Calibration),
		inflight: make(map[string]*calibrateCall),
	}
}

// Lookup serves an estimate from the calibration cache; ok is false on
// a miss. This is the zero-allocation fast path.
func (e *Estimator) Lookup(key string) (est Estimate, ok bool) {
	e.mu.RLock()
	cal := e.cache[key]
	e.mu.RUnlock()
	if cal == nil {
		return Estimate{}, false
	}
	return cal.Estimate(e.bounds.For(cal.Policy, cal.MixID)), true
}

// Calibration returns the cached calibration for a key, if any.
func (e *Estimator) Calibration(key string) (*Calibration, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	cal, ok := e.cache[key]
	return cal, ok
}

// Put installs an externally obtained calibration (a store artifact) in
// the cache.
func (e *Estimator) Put(key string, cal *Calibration) {
	e.mu.Lock()
	e.cache[key] = cal
	e.mu.Unlock()
}

// EstimateOf assembles the wire answer for a calibration using the
// estimator's bounds table.
func (e *Estimator) EstimateOf(cal *Calibration) Estimate {
	return cal.Estimate(e.bounds.For(cal.Policy, cal.MixID))
}

// Len reports the number of cached calibrations.
func (e *Estimator) Len() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.cache)
}

// Get serves an estimate, calibrating on a cache miss. cached reports
// whether the answer came from the cache (including joining another
// goroutine's in-flight calibration after it lands).
func (e *Estimator) Get(ctx context.Context, spec Spec) (est Estimate, cached bool, err error) {
	key := spec.CacheKey()
	if est, ok := e.Lookup(key); ok {
		return est, true, nil
	}
	cal, err := e.Do(ctx, key, spec)
	if err != nil {
		return Estimate{}, false, err
	}
	return e.EstimateOf(cal), false, nil
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
