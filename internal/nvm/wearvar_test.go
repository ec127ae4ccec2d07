package nvm

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// framesWithWear builds byte-disabling frames carrying exact wear levels:
// the endurance mean is far above any fixture wear, so AddWear moves the
// wear gauge without killing bytes.
func framesWithWear(wears ...float64) []Frame {
	fs := make([]Frame, len(wears))
	for i, w := range wears {
		fs[i] = *NewFrame(EnduranceModel{Mean: 1e12, CV: 0}, stats.NewRNG(1), ByteDisabling)
		fs[i].AddWear(w)
	}
	return fs
}

func approx(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

// TestWearVariationHandComputed pins the whole metric family against a
// 2-set x 2-way fixture small enough to verify by hand:
//
//	wears = [1 3 | 5 7]
//	row means        = [2, 6], mean 4 -> inter-set CoV = 2/4 = 0.5
//	row CoVs         = [1/2, 1/6]    -> intra-set CoV = 1/3
//	Gini (sorted 1,3,5,7): 2*(1+6+15+28)/(4*16) - 5/4 = 0.3125
func TestWearVariationHandComputed(t *testing.T) {
	wv := WearVariationOf(framesWithWear(1, 3, 5, 7), 2, 2)
	approx(t, "InterSetCoV", wv.InterSetCoV, 0.5)
	approx(t, "IntraSetCoV", wv.IntraSetCoV, 1.0/3.0)
	approx(t, "WearMin", wv.WearMin, 1)
	approx(t, "WearMax", wv.WearMax, 7)
	approx(t, "Gini", wv.Gini, 0.3125)
}

// TestWearVariationUniform: perfectly level wear zeroes every imbalance
// metric.
func TestWearVariationUniform(t *testing.T) {
	wv := WearVariationOf(framesWithWear(2, 2, 2, 2), 2, 2)
	approx(t, "InterSetCoV", wv.InterSetCoV, 0)
	approx(t, "IntraSetCoV", wv.IntraSetCoV, 0)
	approx(t, "WearMin", wv.WearMin, 2)
	approx(t, "WearMax", wv.WearMax, 2)
	approx(t, "Gini", wv.Gini, 0)
}

// TestWearVariationConcentrated: all wear on one frame of one row — the
// worst case every metric must flag. With n=4 frames the sorted-rank
// Gini is (n-1)/n = 0.75.
func TestWearVariationConcentrated(t *testing.T) {
	wv := WearVariationOf(framesWithWear(0, 0, 0, 8), 2, 2)
	approx(t, "InterSetCoV", wv.InterSetCoV, 1)
	// Row 0 has zero mean wear and is skipped; row 1's CoV is 1, averaged
	// over both rows.
	approx(t, "IntraSetCoV", wv.IntraSetCoV, 0.5)
	approx(t, "WearMin", wv.WearMin, 0)
	approx(t, "WearMax", wv.WearMax, 8)
	approx(t, "Gini", wv.Gini, 0.75)
}

// TestWearVariationEdges pins the degenerate inputs: empty slices,
// mismatched geometry and an all-zero array must yield the zero value
// (no NaN, no Inf) — these feed JSON reports where NaN is not
// representable.
func TestWearVariationEdges(t *testing.T) {
	for name, wv := range map[string]WearVariation{
		"nil frames":  WearVariationOf(nil, 0, 0),
		"zero sets":   WearVariationOf(framesWithWear(1, 2), 0, 2),
		"zero ways":   WearVariationOf(framesWithWear(1, 2), 2, 0),
		"geometry":    WearVariationOf(framesWithWear(1, 2, 3), 2, 2),
		"no wear yet": WearVariationOf(framesWithWear(0, 0, 0, 0), 2, 2),
	} {
		if wv.InterSetCoV != 0 || wv.IntraSetCoV != 0 || wv.Gini != 0 {
			t.Errorf("%s: non-zero imbalance %+v", name, wv)
		}
		for metric, v := range map[string]float64{
			"InterSetCoV": wv.InterSetCoV, "IntraSetCoV": wv.IntraSetCoV,
			"WearMin": wv.WearMin, "WearMax": wv.WearMax, "Gini": wv.Gini,
		} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", name, metric, v)
			}
		}
	}
}

// TestRowWearInto pins the set-major accumulation the LLC's wear
// feedback and the wearmap heat table both rely on.
func TestRowWearInto(t *testing.T) {
	fs := framesWithWear(1, 3, 5, 7)
	rows := RowWearInto(make([]float64, 2), []*Frame{&fs[0], &fs[1], &fs[2], &fs[3]}, 2, 2)
	approx(t, "row 0", rows[0], 4)
	approx(t, "row 1", rows[1], 12)
}

// TestArrayWearVariationMatchesOf: the array method is exactly
// WearVariationOf over copies of its frames.
func TestArrayWearVariationMatchesOf(t *testing.T) {
	arr := NewArray(4, 2, EnduranceModel{Mean: 1e6, CV: 0.2}, stats.NewRNG(11), ByteDisabling)
	copies := make([]Frame, 0, 8)
	for i, f := range arr.Frames() {
		f.AddWear(float64(i * i % 13))
		copies = append(copies, *f)
	}
	got := arr.WearVariation()
	want := WearVariationOf(copies, 4, 2)
	if got != want {
		t.Fatalf("array metrics %+v != explicit %+v", got, want)
	}
}
