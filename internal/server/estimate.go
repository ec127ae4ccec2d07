package server

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/core"
)

// This file is the POST /v1/estimate surface: the analytic fast path as
// a synchronous endpoint. Unlike /v1/jobs — whose runs take seconds and
// queue — an estimate answers inline: a cached calibration is an RLock
// and a map probe (sub-millisecond, pinned by BenchmarkEstimateFastPath); a
// miss runs the short calibration simulation on the request goroutine
// and content-addresses the result in the jobstore, so no spec is ever
// calibrated twice across restarts.

// DecodeEstimateSpec decodes a POST /v1/estimate body strictly over
// analytic.DefaultSpec — the same decode discipline as /v1/jobs:
// unknown fields and trailing data are rejected, omitted fields keep
// the defaults, and the embedded config passes the full geometry
// allowlist before anything simulates.
func DecodeEstimateSpec(data []byte) (analytic.Spec, error) {
	spec := analytic.DefaultSpec()
	if err := core.UnmarshalStrict(data, &spec); err != nil {
		return spec, fmt.Errorf("estimate spec: %w", err)
	}
	return spec, spec.Validate()
}

// EstimateResponse is the POST /v1/estimate JSON body: the estimate,
// the calibration it came from, and cache provenance. Everything except
// CacheHit is a pure function of the spec, so repeated queries render
// byte-identical bodies once the first response primed the cache.
type EstimateResponse struct {
	CacheKey    string                `json:"cache_key"`
	CacheHit    bool                  `json:"cache_hit"`
	Estimate    analytic.Estimate     `json:"estimate"`
	Calibration *analytic.Calibration `json:"calibration,omitempty"`
}

// Estimate answers an estimate query: memory cache, then store
// artifact, then a fresh calibration (per-key singleflight, journaled
// nowhere — the artifact IS the durable record, keyed "est-<sha256>" by
// content). New calibrations are refused while draining; cached answers
// are served either way, they cost nothing.
func (m *Manager) Estimate(ctx context.Context, spec analytic.Spec) (EstimateResponse, error) {
	m.estimates.Add(1)
	key := spec.CacheKey()
	if est, cal, ok := m.est.Lookup(key); ok {
		m.estCacheHits.Add(1)
		return EstimateResponse{CacheKey: key, CacheHit: true, Estimate: est, Calibration: cal}, nil
	}
	if m.store != nil {
		if data, ok, err := m.store.GetArtifact(key, ""); ok && err == nil {
			if cal, derr := analytic.DecodeCalibration(data); derr == nil {
				m.est.Put(key, cal)
				m.estCacheHits.Add(1)
				return EstimateResponse{CacheKey: key, CacheHit: true,
					Estimate: cal.Estimate(), Calibration: cal}, nil
			} else {
				m.log.Warn("estimate artifact unusable, recalibrating", "key", key, "err", derr)
			}
		}
	}
	if m.Draining() {
		return EstimateResponse{}, ErrDraining
	}
	cal, err := m.est.Do(ctx, key, spec)
	if err != nil {
		return EstimateResponse{}, err
	}
	m.estCalibrations.Add(1)
	if m.store != nil {
		if blob, eerr := analytic.EncodeCalibration(cal); eerr == nil {
			if _, werr := m.store.PutArtifact(key, blob); werr != nil {
				m.log.Error("estimate artifact write failed", "key", key, "err", werr)
			}
		}
	}
	m.log.Info("estimate calibrated", "key", key, "policy", cal.Policy,
		"mix", cal.MixID+1, "young_ipc", cal.YoungIPC, "censored", cal.Censored)
	return EstimateResponse{CacheKey: key, Estimate: cal.Estimate(), Calibration: cal}, nil
}
