package experiments

import (
	"context"
	"math"

	"repro/internal/analytic"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/forecast"
)

// This file connects the analytic fast path to the experiment harness:
// EstimateCell is the one-step lifetime cell of ForecastComparison (one
// calibration per cell instead of a full forecast — cmd/forecast
// -analytic), and AnalyticValidation is the cross-validation that fits
// and polices the estimator's error bounds by running both paths per
// cell (the differential accuracy suite pins it).

// calibrate runs a cell's one-step forecast: analytic.Calibrate over
// one calibration window, to the paper's 50% capacity target.
func calibrate(cfg core.Config, warmupCycles, calibrationCycles uint64) (*analytic.Calibration, error) {
	return analytic.Calibrate(context.Background(), analytic.Spec{Config: cfg,
		WarmupCycles: warmupCycles, CalibrationCycles: calibrationCycles, TargetCapacity: 0.5})
}

// EstimateCell is the one-step forecast: one analytic.Calibrate per
// cell, lifted into a one-point forecast.Result so the comparison
// reuses every forecast aggregate and renderer (PolicyForecast, IPCAt,
// the cmd/forecast tables).
func EstimateCell(warmupCycles, calibrationCycles uint64) ForecastCell {
	return func(v Variant, cfg core.Config) (forecast.Result, error) {
		cal, err := calibrate(cfg, warmupCycles, calibrationCycles)
		if err != nil {
			return forecast.Result{}, err
		}
		res := forecast.Result{
			Policy: v.Label,
			Points: []forecast.Point{{
				Capacity:    1,
				MeanIPC:     cal.YoungIPC,
				HitRate:     cal.HitRate,
				NVMByteRate: cal.NVMByteRate,
			}},
			LifetimeSeconds: cal.LifetimeSeconds,
		}
		if cal.Censored {
			res.LifetimeSeconds = math.Inf(1)
		}
		return res, nil
	}
}

// AnalyticCell is one cross-validated (policy, mix) cell: the exact
// forecast's answer, the analytic estimate, and the relative errors
// between them.
type AnalyticCell struct {
	Policy string
	Mix    int // 0-based

	// The slow path's ground truth.
	SimLifetimeMonths float64
	SimCensored       bool
	SimYoungIPC       float64

	// The fast path's answer (bounds filled from the validation table).
	Est analytic.Estimate

	// Relative errors |analytic − forecast| / forecast. LifetimeRelErr
	// is 0 when both paths censor (they agree the config never dies) and
	// +Inf when exactly one censors — a censoring disagreement can never
	// pass a finite bound.
	IPCRelErr      float64
	LifetimeRelErr float64
}

// WithinBounds reports whether the cell's errors respect the estimate's
// own reported bounds.
func (c AnalyticCell) WithinBounds() bool {
	return c.IPCRelErr <= c.Est.IPCErrorBound && c.LifetimeRelErr <= c.Est.LifetimeErrorBound
}

// relErr is the relative error of est against the reference ref.
func relErr(est, ref float64) float64 {
	if ref == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-ref) / ref
}

// AnalyticValidation cross-validates the analytic estimator against the
// full forecast over a mix × policy matrix: each cell runs both paths
// and reports the relative errors; failed cells are left out and
// reported in the task records. Each estimate carries the bounds the
// service would report, so callers can assert cell.WithinBounds —
// exactly what the differential accuracy suite does.
func AnalyticValidation(base core.Config, curves []Variant, mixes []int, fcfg forecast.Config, warmupCycles, calibrationCycles uint64) ([]AnalyticCell, []cliutil.TaskResult) {
	g := runGrid(base, curves, mixes, func(_ int, cfg core.Config) (AnalyticCell, error) {
		sim, err := SimulateCell(fcfg)(Variant{}, cfg)
		if err != nil {
			return AnalyticCell{}, err
		}
		cal, err := calibrate(cfg, warmupCycles, calibrationCycles)
		if err != nil {
			return AnalyticCell{}, err
		}

		cell := AnalyticCell{
			Policy:            cal.Policy,
			Mix:               cfg.MixID,
			SimCensored:       math.IsInf(sim.LifetimeSeconds, 1),
			SimLifetimeMonths: sim.LifetimeMonths(),
			Est:               cal.Estimate(),
		}
		if len(sim.Points) > 0 {
			cell.SimYoungIPC = sim.Points[0].MeanIPC
		}
		cell.IPCRelErr = relErr(cell.Est.YoungIPC, cell.SimYoungIPC)
		switch {
		case cell.SimCensored && cell.Est.Censored:
			cell.LifetimeRelErr = 0
		case cell.SimCensored != cell.Est.Censored:
			cell.LifetimeRelErr = math.Inf(1)
		default:
			cell.LifetimeRelErr = relErr(cell.Est.LifetimeMonths, cell.SimLifetimeMonths)
		}
		return cell, nil
	})
	var out []AnalyticCell
	for v, row := range g.rows {
		for m, cell := range row {
			if !g.failed(v, m) {
				out = append(out, cell)
			}
		}
	}
	return out, g.results
}
