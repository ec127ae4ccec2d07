package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/forecast"
)

// ForecastSpec names one curve of Figs. 1/10/11 and how to derive its
// configuration from the base.
type ForecastSpec struct {
	Label  string
	Mutate func(*core.Config)
}

// StandardForecastSpecs returns the paper's Fig. 1 / Fig. 10a curve set:
// the two SRAM bounds, BH, BH_CP, LHybrid, TAP, CP_SD and the Th4/Th8
// rule variants.
func StandardForecastSpecs() []ForecastSpec {
	return []ForecastSpec{
		{"SRAM16", func(c *core.Config) { c.PolicyName = "SRAM16" }},
		{"SRAM4", func(c *core.Config) { c.PolicyName = "SRAM4" }},
		{"BH", func(c *core.Config) { c.PolicyName = "BH" }},
		{"BH_CP", func(c *core.Config) { c.PolicyName = "BH_CP" }},
		{"LHybrid", func(c *core.Config) { c.PolicyName = "LHybrid" }},
		{"TAP", func(c *core.Config) { c.PolicyName = "TAP" }},
		{"CP_SD", func(c *core.Config) { c.PolicyName = "CP_SD" }},
		{"CP_SD_Th4", func(c *core.Config) { c.PolicyName = "CP_SD_Th"; c.Th = 4; c.Tw = 5 }},
		{"CP_SD_Th8", func(c *core.Config) { c.PolicyName = "CP_SD_Th"; c.Th = 8; c.Tw = 5 }},
	}
}

// ForecastLabels lists the curve labels of StandardForecastSpecs.
func ForecastLabels() []string {
	all := StandardForecastSpecs()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Label
	}
	return out
}

// CoreForecastSpecs is the subset used by quick harness runs.
func CoreForecastSpecs() []ForecastSpec {
	all := StandardForecastSpecs()
	out := make([]ForecastSpec, 0, 5)
	for _, s := range all {
		switch s.Label {
		case "SRAM16", "BH", "LHybrid", "CP_SD":
			out = append(out, s)
		}
	}
	return out
}

// SelectForecastSpecs resolves a CLI curve selector — "standard", "core",
// or a comma-separated list of curve labels — to forecast specs.
func SelectForecastSpecs(arg string) ([]ForecastSpec, error) {
	switch arg {
	case "standard":
		return StandardForecastSpecs(), nil
	case "core":
		return CoreForecastSpecs(), nil
	}
	all := StandardForecastSpecs()
	var out []ForecastSpec
	for _, tok := range strings.Split(arg, ",") {
		label := strings.TrimSpace(tok)
		found := false
		for _, s := range all {
			if s.Label == label {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown curve %q (valid: %s)", label, strings.Join(ForecastLabels(), ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty curve list")
	}
	return out, nil
}

// PolicyForecast aggregates one policy's forecast across mixes.
type PolicyForecast struct {
	Label  string
	PerMix []forecast.Result

	// MeanLifetimeMonths averages the finite per-mix lifetimes;
	// CensoredMixes counts mixes whose capacity never reached the target
	// within the forecast horizon (their lifetime is a lower bound).
	MeanLifetimeMonths float64
	CensoredMixes      int

	// InitialIPC is the across-mix mean IPC of the first forecast point
	// (the young-cache operating point of Fig. 10's left edge).
	InitialIPC float64
}

// ForecastComparison runs the forecast for each spec across the mixes.
// The (spec, mix) simulations are independent and run in parallel on the
// hardened pool: a failed cell is excluded from its policy's aggregates
// and reported in the returned task records instead of aborting the
// whole comparison.
func ForecastComparison(base core.Config, specs []ForecastSpec, mixes []int, fcfg forecast.Config) ([]PolicyForecast, []cliutil.TaskResult, error) {
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
			sys, err := cfg.Build()
			if err != nil {
				return err
			}
			results[i] = forecast.Run(sys, fcfg)
			return nil
		}}
	}
	taskResults := cliutil.RunTasks(tasks, cliutil.PoolConfig{})
	return aggregateForecasts(specs, mixes, results, taskResults), taskResults, nil
}

// aggregateForecasts folds per-cell forecast results into per-policy
// aggregates, dropping failed cells. Shared by the full forecast
// comparison and its analytic fast-path counterpart, which synthesizes
// one-point forecast.Results from calibrations.
func aggregateForecasts(specs []ForecastSpec, mixes []int, results []forecast.Result, taskResults []cliutil.TaskResult) []PolicyForecast {
	out := make([]PolicyForecast, 0, len(specs))
	for si, spec := range specs {
		pf := PolicyForecast{Label: spec.Label}
		var lifeSum float64
		var lifeN int
		var ipcSum float64
		var okMixes int
		for mi := range mixes {
			cell := si*len(mixes) + mi
			if taskResults[cell].Failed() {
				continue
			}
			res := results[cell]
			pf.PerMix = append(pf.PerMix, res)
			okMixes++
			if math.IsInf(res.LifetimeSeconds, 1) {
				pf.CensoredMixes++
			} else {
				lifeSum += res.LifetimeMonths()
				lifeN++
			}
			if len(res.Points) > 0 {
				ipcSum += res.Points[0].MeanIPC
			}
		}
		if lifeN > 0 {
			pf.MeanLifetimeMonths = lifeSum / float64(lifeN)
		} else {
			pf.MeanLifetimeMonths = math.Inf(1)
		}
		if okMixes > 0 {
			pf.InitialIPC = ipcSum / float64(okMixes)
		}
		out = append(out, pf)
	}
	return out
}

// IPCAt returns the across-mix mean IPC of a policy at an absolute time,
// using step interpolation (last measured point at or before t). Mixes
// whose trajectory ended before t contribute their final point, matching
// the paper's practice of plotting until 50% capacity.
func (pf *PolicyForecast) IPCAt(seconds float64) float64 {
	if len(pf.PerMix) == 0 {
		return 0
	}
	var sum float64
	for _, res := range pf.PerMix {
		sum += ipcAt(res, seconds)
	}
	return sum / float64(len(pf.PerMix))
}

func ipcAt(res forecast.Result, seconds float64) float64 {
	if len(res.Points) == 0 {
		return 0
	}
	last := res.Points[0].MeanIPC
	for _, p := range res.Points {
		if p.TimeSeconds > seconds {
			break
		}
		last = p.MeanIPC
	}
	return last
}

// NormalizeTo divides a value by a bound, guarding zero.
func NormalizeTo(v, bound float64) float64 {
	if bound == 0 {
		return 0
	}
	return v / bound
}

// FindSpec returns the forecast with the given label.
func FindSpec(fs []PolicyForecast, label string) (PolicyForecast, bool) {
	for _, f := range fs {
		if f.Label == label {
			return f, true
		}
	}
	return PolicyForecast{}, false
}
