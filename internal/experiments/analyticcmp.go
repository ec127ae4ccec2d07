package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analytic"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/forecast"
)

// This file connects the analytic fast path to the experiment harness:
// AnalyticComparison is the fast-path counterpart of ForecastComparison
// (one calibration per cell instead of a full forecast — cmd/forecast
// -analytic), and AnalyticValidation is the cross-validation that fits
// and polices the estimator's error bounds by running both paths per
// cell (the differential accuracy suite pins it).

// AnalyticSpecFor derives the estimate spec for a config and a
// calibration window, with the paper's 50% capacity target.
func AnalyticSpecFor(cfg core.Config, warmupCycles, calibrationCycles uint64) analytic.Spec {
	return analytic.Spec{
		Config:            cfg,
		WarmupCycles:      warmupCycles,
		CalibrationCycles: calibrationCycles,
		TargetCapacity:    0.5,
	}
}

// synthResult lifts a calibration into a one-point forecast.Result so
// the analytic comparison reuses every forecast aggregate and renderer
// (PolicyForecast, IPCAt, the cmd/forecast tables).
func synthResult(label string, cal *analytic.Calibration) forecast.Result {
	res := forecast.Result{
		Policy: label,
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
	return res
}

// AnalyticComparison is ForecastComparison on the fast path: one
// calibration simulation per (spec, mix) cell, closed-form aging, no
// iterative forecast. Cells run in parallel on the hardened pool; a
// failed cell is dropped from its policy's aggregates and reported in
// the task records.
func AnalyticComparison(base core.Config, specs []ForecastSpec, mixes []int, warmupCycles, calibrationCycles uint64) ([]PolicyForecast, []cliutil.TaskResult, error) {
	results := make([]forecast.Result, len(specs)*len(mixes))
	tasks := make([]cliutil.Task, len(results))
	for i := range tasks {
		i := i
		spec := specs[i/len(mixes)]
		m := mixes[i%len(mixes)]
		tasks[i] = cliutil.Task{Name: fmt.Sprintf("curve=%s/mix=%d", spec.Label, m+1), Run: func() error {
			cfg := base
			cfg.MixID = m
			spec.Mutate(&cfg)
			cal, err := analytic.Calibrate(context.Background(), AnalyticSpecFor(cfg, warmupCycles, calibrationCycles))
			if err != nil {
				return err
			}
			results[i] = synthResult(spec.Label, cal)
			return nil
		}}
	}
	taskResults := runTasks(tasks)
	return aggregateForecasts(specs, mixes, results, taskResults), taskResults, nil
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
// (in parallel across cells on the hardened pool) and reports the
// relative errors. The bounds table (nil selects the defaults) fills
// each estimate's reported bounds, so callers can assert
// cell.WithinBounds — exactly what the differential accuracy suite does.
func AnalyticValidation(base core.Config, specs []ForecastSpec, mixes []int, fcfg forecast.Config, warmupCycles, calibrationCycles uint64, bounds *analytic.BoundsTable) ([]AnalyticCell, []cliutil.TaskResult, error) {
	if bounds == nil {
		bounds = analytic.NewBoundsTable(analytic.DefaultBounds())
	}
	cells := make([]AnalyticCell, len(specs)*len(mixes))
	ok := make([]bool, len(cells))
	tasks := make([]cliutil.Task, len(cells))
	for i := range tasks {
		i := i
		spec := specs[i/len(mixes)]
		m := mixes[i%len(mixes)]
		tasks[i] = cliutil.Task{Name: fmt.Sprintf("curve=%s/mix=%d", spec.Label, m+1), Run: func() error {
			cfg := base
			cfg.MixID = m
			spec.Mutate(&cfg)

			sys, err := cfg.Build()
			if err != nil {
				return err
			}
			sim := forecast.Run(sys, fcfg)

			cal, err := analytic.Calibrate(context.Background(), AnalyticSpecFor(cfg, warmupCycles, calibrationCycles))
			if err != nil {
				return err
			}

			cell := AnalyticCell{
				Policy:            cal.Policy,
				Mix:               m,
				SimCensored:       math.IsInf(sim.LifetimeSeconds, 1),
				SimLifetimeMonths: sim.LifetimeMonths(),
				Est:               cal.Estimate(bounds.For(cal.Policy, m)),
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
			cells[i] = cell
			ok[i] = true
			return nil
		}}
	}
	taskResults := runTasks(tasks)
	out := cells[:0]
	for i := range cells {
		if ok[i] {
			out = append(out, cells[i])
		}
	}
	return out, taskResults, nil
}
