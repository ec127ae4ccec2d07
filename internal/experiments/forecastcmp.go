package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/forecast"
)

// StandardForecastSpecs returns the paper's Fig. 1 / Fig. 10a curve set:
// the two SRAM bounds, BH, BH_CP, LHybrid, TAP, CP_SD and the Th4/Th8
// rule variants.
func StandardForecastSpecs() []Variant {
	return []Variant{
		policyVariant("SRAM16"),
		policyVariant("SRAM4"),
		policyVariant("BH"),
		policyVariant("BH_CP"),
		policyVariant("LHybrid"),
		policyVariant("TAP"),
		policyVariant("CP_SD"),
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
func CoreForecastSpecs() []Variant {
	all := StandardForecastSpecs()
	out := make([]Variant, 0, 5)
	for _, s := range all {
		switch s.Label {
		case "SRAM16", "BH", "LHybrid", "CP_SD":
			out = append(out, s)
		}
	}
	return out
}

// SelectForecastSpecs resolves a CLI curve selector — "standard", "core",
// or a comma-separated list of curve labels — to forecast curves.
func SelectForecastSpecs(arg string) ([]Variant, error) {
	switch arg {
	case "standard":
		return StandardForecastSpecs(), nil
	case "core":
		return CoreForecastSpecs(), nil
	}
	all := StandardForecastSpecs()
	var out []Variant
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

// ForecastCell computes one (curve, mix) cell of a lifetime comparison
// from the curve and the cell's config.
type ForecastCell func(v Variant, cfg core.Config) (forecast.Result, error)

// SimulateCell is the full aging forecast: forecast.Run on the cell's
// system.
func SimulateCell(fcfg forecast.Config) ForecastCell {
	return func(_ Variant, cfg core.Config) (forecast.Result, error) {
		sys, err := cfg.Build()
		if err != nil {
			return forecast.Result{}, err
		}
		return forecast.Run(sys, fcfg), nil
	}
}

// ForecastComparison runs a lifetime cell for each curve across the
// mixes — the full forecast (SimulateCell) or its one-step analytic case
// (EstimateCell). A failed cell is excluded from its curve's aggregates
// and reported in the returned task records instead of aborting the
// whole comparison.
func ForecastComparison(base core.Config, curves []Variant, mixes []int, cell ForecastCell) ([]PolicyForecast, []cliutil.TaskResult) {
	g := runGrid(base, curves, mixes, func(v int, cfg core.Config) (forecast.Result, error) {
		return cell(curves[v], cfg)
	})
	out := make([]PolicyForecast, 0, len(curves))
	for v, curve := range curves {
		pf := PolicyForecast{Label: curve.Label}
		var lifeSum float64
		var lifeN int
		var ipcSum float64
		for m, res := range g.rows[v] {
			if g.failed(v, m) {
				continue
			}
			pf.PerMix = append(pf.PerMix, res)
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
		if len(pf.PerMix) > 0 {
			pf.InitialIPC = ipcSum / float64(len(pf.PerMix))
		}
		out = append(out, pf)
	}
	return out, g.results
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
