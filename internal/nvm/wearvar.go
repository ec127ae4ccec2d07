package nvm

import (
	"math"
	"sort"
)

// WearVariation is the inter/intra-set wear-variation metric family: how
// unevenly writes have landed across the array. The coloring schemes
// exist to shrink InterSetCoV; Gini and WearMin complete the picture
// (a scheme can flatten the row means while starving one frame).
type WearVariation struct {
	// InterSetCoV is the coefficient of variation (stddev/mean) of the
	// per-row mean frame wear — the set-dimension imbalance the paper's
	// intra-set policies cannot touch. 0 when the mean wear is 0.
	InterSetCoV float64
	// IntraSetCoV is the mean over rows of each row's within-row frame
	// wear CoV — the way-dimension imbalance the insertion policies and
	// the wear-level counter attack.
	IntraSetCoV float64
	// WearMin and WearMax bound the per-frame wear distribution.
	WearMin float64
	WearMax float64
	// Gini is the Gini coefficient of per-frame wear (0 = perfectly
	// level, →1 = all wear on one frame). 0 when total wear is 0.
	Gini float64
}

// RowWearInto fills dst (length sets) with each row's total frame wear,
// iterating frames in set-major order.
func RowWearInto(dst []float64, frames []*Frame, sets, ways int) []float64 {
	for s := 0; s < sets; s++ {
		var t float64
		for w := 0; w < ways; w++ {
			t += frames[s*ways+w].Wear()
		}
		dst[s] = t
	}
	return dst
}

// WearVariationOf computes the metric family over an explicit set-major
// frame slice (the array gauges call it over the array's own frames). A
// nil/empty slice or mismatched geometry yields the zero value.
func WearVariationOf(frames []*Frame, sets, ways int) WearVariation {
	var wv WearVariation
	if len(frames) == 0 || sets < 1 || ways < 1 || sets*ways != len(frames) {
		return wv
	}
	wv.WearMin = math.Inf(1)
	var rowMeanSum float64
	rowMeans := make([]float64, sets)
	for s := 0; s < sets; s++ {
		var sum float64
		for w := 0; w < ways; w++ {
			wear := frames[s*ways+w].Wear()
			sum += wear
			if wear < wv.WearMin {
				wv.WearMin = wear
			}
			if wear > wv.WearMax {
				wv.WearMax = wear
			}
		}
		rowMeans[s] = sum / float64(ways)
		rowMeanSum += rowMeans[s]
	}
	mean := rowMeanSum / float64(sets)
	if mean > 0 {
		var varSum float64
		for _, m := range rowMeans {
			d := m - mean
			varSum += d * d
		}
		wv.InterSetCoV = math.Sqrt(varSum/float64(sets)) / mean
	}
	var intraSum float64
	for s := 0; s < sets; s++ {
		if rowMeans[s] <= 0 {
			continue
		}
		var varSum float64
		for w := 0; w < ways; w++ {
			d := frames[s*ways+w].Wear() - rowMeans[s]
			varSum += d * d
		}
		intraSum += math.Sqrt(varSum/float64(ways)) / rowMeans[s]
	}
	wv.IntraSetCoV = intraSum / float64(sets)
	wv.Gini = giniOfFrames(frames)
	return wv
}

// giniOfFrames computes the Gini coefficient of per-frame wear via the
// sorted-order formula G = (2·Σ i·x_i)/(n·Σ x) − (n+1)/n with 1-based
// ranks over ascending x.
func giniOfFrames(frames []*Frame) float64 {
	n := len(frames)
	xs := make([]float64, n)
	var total float64
	for i, f := range frames {
		xs[i] = f.Wear()
		total += xs[i]
	}
	if total <= 0 {
		return 0
	}
	sort.Float64s(xs)
	var weighted float64
	for i, x := range xs {
		weighted += float64(i+1) * x
	}
	return 2*weighted/(float64(n)*total) - float64(n+1)/float64(n)
}

// WearVariation computes the metric family for the array's own frames.
func (a *Array) WearVariation() WearVariation {
	return WearVariationOf(a.frames, a.sets, a.ways)
}
