package nvm

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// FuzzDeathStream checks the death stream's invariants on frames of both
// granularities driven by a seeded mix of deaths, partial wear and
// injected faults: the limits at which bytes die never decrease, a live
// frame's next limit never lies below its wear, no operation brings a
// byte back, live equals FrameBytes minus the fault map's count, and a
// Restored frame replays the same deaths bit for bit. The mean is
// clamped to the simulator's accepted (0, 1e18] and the CV to [0, 10];
// the corpus covers the paper's model, a CV of 0.5, a mean below the
// truncation point, both extremes of the accepted range and a zero CV,
// whose limits all tie.
func FuzzDeathStream(f *testing.F) {
	for _, c := range []struct{ mean, cv float64 }{
		{1e10, 0.2}, {1e3, 0.5}, {0.5, 1}, {1e18, 10}, {math.SmallestNonzeroFloat64, 10}, {1e10, 0},
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
		for _, gran := range []Granularity{ByteDisabling, FrameDisabling} {
			a := NewArray(1, 2, model, stats.NewRNG(seed), gran)
			for i, fr := range a.Frames() {
				ops := stats.NewRNG(seed ^ uint64(i+1))
				saved := *fr
				first := driveFrame(t, fr, ops, model)
				fr.Restore(saved)
				if again := driveFrame(t, fr, stats.NewRNG(seed^uint64(i+1)), model); again != first {
					t.Fatalf("%+v %v frame %d: restored frame replays %+v, first run %+v", model, gran, i, again, first)
				}
			}
		}
	})
}

// deathTrace is what a run of driveFrame saw: the sum of the limits its
// bytes died at, of the byte indices they disabled, and the end state.
type deathTrace struct {
	limits, bytes float64
	deaths        int
	faults        FaultMap
	wear          float64
}

// driveFrame applies 200 operations drawn from ops to fr, failing t when
// an invariant breaks, and returns the trace of the deaths.
func driveFrame(t *testing.T, fr *Frame, ops *stats.RNG, model EnduranceModel) deathTrace {
	t.Helper()
	var tr deathTrace
	last := math.Inf(-1) // the limit of the last death
	for step := 0; step < 200 && !fr.Dead(); step++ {
		before, limit := fr.FaultMap(), fr.NextLimit()
		died := 0
		switch op := ops.Intn(10); {
		case op < 5:
			died = fr.AdvanceTo(limit)
		case op < 8:
			died = fr.AddWear((limit - fr.Wear()) * 1.5 * ops.Float64())
		default:
			fr.InjectFault(ops.Intn(FrameBytes))
		}
		after := fr.FaultMap()
		if before.lo&^after.lo != 0 || before.hi&^after.hi != 0 {
			t.Fatalf("%+v step %d: fault map %v lost bytes of %v", model, step, after, before)
		}
		if int(fr.live) != FrameBytes-after.Count() {
			t.Fatalf("%+v step %d: %d live bytes with %d faulty", model, step, fr.live, after.Count())
		}
		if died > 0 {
			if limit < last {
				t.Fatalf("%+v step %d: a byte died at %v after one at %v", model, step, limit, last)
			}
			last = limit
			tr.limits += limit
			tr.deaths += died
			for i := 0; i < FrameBytes; i++ {
				if after.Get(i) && !before.Get(i) {
					tr.bytes += float64(i)
				}
			}
		}
		if !fr.Dead() && !(fr.NextLimit() >= fr.Wear()) {
			t.Fatalf("%+v step %d: next limit %v below the wear %v", model, step, fr.NextLimit(), fr.Wear())
		}
	}
	tr.faults, tr.wear = fr.FaultMap(), fr.Wear()
	return tr
}
