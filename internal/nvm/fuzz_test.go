package nvm

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// FuzzLazyLimits checks the lazy limits against eager sampling: for an
// array built from a seed, every frame's nextLimit at set-up is a lower
// bound (never NaN) on its smallest limit, the limits a frame draws on
// first need are bit for bit the sequential TruncNormal draws of a
// sampler with the same seed, in the death order the reference's stable
// sort gives them, and NewArray leaves its sampler where those draws
// leave theirs. The mean is clamped to the simulator's accepted
// (0, 1e18] and the CV to [0, 10]; the corpus covers the paper's model,
// a mean below the truncation point (every draw takes the exact test),
// the accepted extremes and a zero CV, whose limits all tie.
func FuzzLazyLimits(f *testing.F) {
	for _, c := range []struct{ mean, cv float64 }{
		{1e10, 0.2}, {1e3, 0.5}, {5, 1}, {0.5, 1}, {1e18, 10}, {1e10, 0},
	} {
		f.Add(uint64(1), c.mean, c.cv)
	}
	f.Fuzz(func(t *testing.T, seed uint64, mean, cv float64) {
		mean, cv = math.Abs(mean), math.Abs(cv)
		if math.IsNaN(mean) || mean == 0 {
			mean = 1e10
		}
		if math.IsNaN(cv) {
			cv = 0
		}
		model := EnduranceModel{Mean: min(mean, 1e18), CV: min(cv, 10)}
		lazy := stats.NewRNG(seed)
		a := NewArray(1, 3, model, lazy, ByteDisabling)
		eager := stats.NewRNG(seed)
		for i := range a.backing {
			fr, ref := &a.backing[i], newRefFrame(eager, model, ByteDisabling)
			lowest := ref.limits[ref.order[0]]
			bound := fr.nextLimit
			if math.IsNaN(bound) || bound > lowest {
				t.Fatalf("%+v frame %d: bound %v, smallest limit %v", model, i, bound, lowest)
			}
			fr.ensureOrder()
			l := fr.lim()
			for k, b := range ref.order {
				if l.order[k] != b || math.Float64bits(l.sorted[k]) != math.Float64bits(ref.limits[b]) {
					t.Fatalf("%+v frame %d death %d: byte %d limit %v, eager byte %d limit %v",
						model, i, k, l.order[k], l.sorted[k], b, ref.limits[b])
				}
			}
		}
		if lazy.State() != eager.State() {
			t.Fatalf("%+v: sampler state after NewArray differs from eager sampling", model)
		}
	})
}
