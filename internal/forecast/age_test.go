package forecast

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nvm"
	"repro/internal/stats"
)

// refAgeFrames is the reference for AgeFrames: the same aging taken one
// death at a time in global time order, a linear scan finding the
// earliest death, ties going to the lowest frame index.
func refAgeFrames(frames []*nvm.Frame, phaseSeconds, stopCapacity, maxSeconds float64) (elapsed, capacity float64) {
	agers := make([]frameAger, len(frames))
	totalUnits := float64(len(frames) * nvm.DataBytes)
	capUnits := 0
	for i, f := range frames {
		agers[i] = frameAger{f: f, rate: float64(f.PhaseWritten()) / phaseSeconds}
		capUnits += f.EffectiveCapacity()
	}
	T := 0.0
	for float64(capUnits)/totalUnits > stopCapacity {
		next, at := -1, math.Inf(1)
		for i := range agers {
			if d := agers[i].nextDeath(); d < at {
				next, at = i, d
			}
		}
		if next < 0 {
			break
		}
		if at > maxSeconds {
			T = maxSeconds
			break
		}
		fa := &agers[next]
		before := fa.f.EffectiveCapacity()
		fa.f.AdvanceTo(fa.f.NextLimit())
		fa.lastT = at
		capUnits -= before - fa.f.EffectiveCapacity()
		T = at
	}
	for i := range agers {
		agers[i].advanceTo(T)
	}
	return T, capacityOfFrames(frames)
}

// randomFrames builds n frames from seed, the same frames on every call:
// write rates skewed over the given number of octaves, about one in six
// frames unwritten (the first one always, so aging keeps more than 0.5%
// of n frames' capacity), some
// frames Disabled, some with injected faults, and every third frame the
// twin of the one before it: the same limits, writes and faults, so the
// two die at exactly the same times.
func randomFrames(seed int64, n, octaves int, gran nvm.Granularity, model nvm.EnduranceModel) []*nvm.Frame {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*nvm.Frame, 0, n)
	var frameSeed uint64
	var writes int
	var faults []int
	var disable bool
	for i := 0; i < n; i++ {
		if i%3 != 2 { // a fresh frame; otherwise a twin of the last one
			frameSeed = rng.Uint64()
			writes = 0
			if rng.Intn(6) != 0 && i > 0 {
				writes = nvm.FrameBytes << rng.Intn(octaves)
			}
			faults = faults[:0]
			if rng.Intn(5) == 0 {
				for k := 1 + rng.Intn(3); k > 0; k-- {
					faults = append(faults, rng.Intn(nvm.FrameBytes))
				}
			}
			disable = rng.Intn(12) == 0 && i > 0
		}
		f := nvm.NewFrame(model, stats.NewRNG(frameSeed), gran)
		for _, b := range faults {
			f.InjectFault(b)
		}
		f.RecordWrite(writes)
		if disable {
			f.Disable()
		}
		frames = append(frames, f)
	}
	return frames
}

// sameAging fails unless the frames a and b, aged apart, ended in the
// same state, floats compared bit for bit.
func sameAging(t *testing.T, a, b []*nvm.Frame) {
	t.Helper()
	for i := range a {
		fa, fb := a[i], b[i]
		if math.Float64bits(fa.Wear()) != math.Float64bits(fb.Wear()) ||
			fa.LiveBytes() != fb.LiveBytes() || fa.FaultMap() != fb.FaultMap() {
			t.Fatalf("frame %d: wear %v live %d faults %v, want wear %v live %d faults %v",
				i, fa.Wear(), fa.LiveBytes(), fa.FaultMap(), fb.Wear(), fb.LiveBytes(), fb.FaultMap())
		}
	}
}

func sameFloat(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// TestAgeFramesMatchesLinearScan: the bucket queue must leave the frames
// and return the time and capacity exactly as a linear scan for the
// earliest death does, on random frames with zero rates, Disabled
// frames, injected faults and twins, at both granularities, whether
// aging stops at the capacity, runs out of deaths or is cut off at
// maxSeconds. The crowded model draws limits so close together that one
// frame's successive deaths fall on the same float time. The last four
// cases aim at the buckets' edges: deaths before 1 s, in the floor
// bucket; a maxSeconds with deaths on both sides of it in its bucket;
// rates 2^35 apart, so the deaths spread over more than 30 octaves; and
// a stop inside a bucket that holds about one rate class's every death.
func TestAgeFramesMatchesLinearScan(t *testing.T) {
	spread := nvm.EnduranceModel{Mean: 1000, CV: 0.2}
	crowded := nvm.EnduranceModel{Mean: 1e6, CV: 1e-15}
	cases := []struct {
		name             string
		model            nvm.EnduranceModel
		octaves          int // write rates span 2^octaves
		stop, maxSeconds float64
		wantStop         bool // the capacity reaches stop
		wantCut          bool // aging ends at maxSeconds
	}{
		{"stop reached", spread, 5, 0.6, 1e12, true, false},
		{"stop not reached", spread, 5, 0.005, 1e12, false, false},
		{"maxSeconds", spread, 5, 0.005, 300, false, true},
		{"crowded", crowded, 5, 0.6, 1e12, true, false},
		{"floor bucket", nvm.EnduranceModel{Mean: 20, CV: 0.1}, 5, 0.55, 1e12, true, false},
		{"maxSeconds in a bucket", spread, 5, 0.005, 139.3, false, true},
		{"30 octaves", nvm.EnduranceModel{Mean: 1e15, CV: 0.2}, 36, 0.18, 1e18, true, false},
		{"stop in a crowded bucket", nvm.EnduranceModel{Mean: 1000, CV: 0.01}, 5, 0.5, 1e12, true, false},
	}
	for _, gran := range []nvm.Granularity{nvm.ByteDisabling, nvm.FrameDisabling} {
		for _, c := range cases {
			for seed := int64(1); seed <= 8; seed++ {
				got := randomFrames(seed, 96, c.octaves, gran, c.model)
				want := randomFrames(seed, 96, c.octaves, gran, c.model)
				elapsed, capacity := AgeFrames(got, 1.0, c.stop, c.maxSeconds)
				wantElapsed, wantCapacity := refAgeFrames(want, 1.0, c.stop, c.maxSeconds)
				name := gran.String() + "/" + c.name
				sameFloat(t, name+" elapsed", elapsed, wantElapsed)
				sameFloat(t, name+" capacity", capacity, wantCapacity)
				sameAging(t, got, want)
				if (capacity <= c.stop) != c.wantStop {
					t.Fatalf("%s seed %d: capacity %v against stop %v", name, seed, capacity, c.stop)
				}
				if (elapsed == c.maxSeconds) != c.wantCut {
					t.Fatalf("%s seed %d: elapsed %v against the cut-off %v", name, seed, elapsed, c.maxSeconds)
				}
			}
		}
	}
}

// TestAgeFramesIgnoresFrameOrder: aging the same twin-laden frames in
// forward and in reversed order must leave every frame bit-identical.
func TestAgeFramesIgnoresFrameOrder(t *testing.T) {
	models := []nvm.EnduranceModel{{Mean: 1000, CV: 0.2}, {Mean: 1e6, CV: 1e-15}}
	for _, model := range models {
		for _, gran := range []nvm.Granularity{nvm.ByteDisabling, nvm.FrameDisabling} {
			for seed := int64(1); seed <= 8; seed++ {
				forward := randomFrames(seed, 96, 5, gran, model)
				built := randomFrames(seed, 96, 5, gran, model)
				reversed := make([]*nvm.Frame, len(built))
				for i, f := range built {
					reversed[len(built)-1-i] = f
				}
				e1, c1 := AgeFrames(forward, 1.0, 0.6, 1e12)
				e2, c2 := AgeFrames(reversed, 1.0, 0.6, 1e12)
				sameFloat(t, "elapsed", e2, e1)
				sameFloat(t, "capacity", c2, c1)
				sameAging(t, built, forward)
			}
		}
	}
}

// skewedFrames returns an array of sets x ways byte-disabling frames
// written at rates 1, 2, 4, 8 and 16 blocks a second by turns.
func skewedFrames(sets, ways int) []*nvm.Frame {
	arr := nvm.NewArray(sets, ways, nvm.EnduranceModel{Mean: 1e10, CV: 0.2}, stats.NewRNG(5), nvm.ByteDisabling)
	frames := arr.Frames()
	for i, f := range frames {
		f.RecordWrite(nvm.FrameBytes << (i % 5))
	}
	return frames
}

// TestAgeFramesAllocatesOnlyItsSlices: aging allocates its two per-call
// slices and nothing per byte death.
func TestAgeFramesAllocatesOnlyItsSlices(t *testing.T) {
	setup := testing.AllocsPerRun(3, func() { skewedFrames(256, 12) })
	faulty := 0
	total := testing.AllocsPerRun(3, func() {
		frames := skewedFrames(256, 12)
		AgeFrames(frames, 1.0, 0.5, math.MaxFloat64)
		faulty = 0
		for _, f := range frames {
			faulty += f.FaultyBytes()
		}
	})
	if faulty < 50_000 {
		t.Fatalf("only %d bytes died; the pin needs many deaths", faulty)
	}
	if extra := total - setup; extra > 2 {
		t.Fatalf("aging %d byte deaths allocated %v times, want at most 2", faulty, extra)
	}
}

// BenchmarkAgeFrames ages a default-sized array (1024 sets x 12 NVM
// ways) from full capacity to half at skewed rates, each byte death
// drawing the next limit; building the array is not timed.
func BenchmarkAgeFrames(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		frames := skewedFrames(1024, 12)
		b.StartTimer()
		if _, c := AgeFrames(frames, 1.0, 0.5, math.MaxFloat64); c > 0.5 {
			b.Fatalf("capacity %v, want at most 0.5", c)
		}
	}
}

// FuzzAgeFrames holds AgeFrames to refAgeFrames bit for bit on frames
// the fuzzer picks: the seed, the number of frames, the octaves their
// write rates span, the granularity, the endurance model, the stop and
// maxSeconds. The mean is clamped to [1, 1e15] and the CV to [0, 10], so
// limits stay finite and a frame's draws do not fall back to the
// truncation point a thousand times over; the stop and maxSeconds are
// taken as they come, NaN, infinities and negative values included. The
// corpus in testdata adds math.MaxFloat64 for maxSeconds, as
// core.PreAge passes it, no frames at all, a NaN stop and a negative
// maxSeconds.
func FuzzAgeFrames(f *testing.F) {
	f.Add(int64(1), uint8(96), uint8(5), false, 1000.0, 0.2, 0.6, 1e12)
	f.Add(int64(2), uint8(96), uint8(5), true, 1e6, 1e-15, 0.6, 1e12)
	f.Add(int64(3), uint8(96), uint8(5), false, 20.0, 0.1, 0.55, 1e12)
	f.Add(int64(4), uint8(96), uint8(5), false, 1000.0, 0.2, 0.005, 139.3)
	f.Add(int64(5), uint8(96), uint8(36), false, 1e15, 0.2, 0.18, 1e18)
	f.Fuzz(func(t *testing.T, seed int64, n, octaves uint8, frameGran bool, mean, cv, stop, maxSeconds float64) {
		if math.IsNaN(mean) {
			mean = 1000
		}
		if math.IsNaN(cv) {
			cv = 0
		}
		model := nvm.EnduranceModel{Mean: min(max(mean, 1), 1e15), CV: min(max(cv, 0), 10)}
		gran := nvm.ByteDisabling
		if frameGran {
			gran = nvm.FrameDisabling
		}
		oct := 1 + int(octaves)%40
		got := randomFrames(seed, int(n), oct, gran, model)
		want := randomFrames(seed, int(n), oct, gran, model)
		elapsed, capacity := AgeFrames(got, 1.0, stop, maxSeconds)
		wantElapsed, wantCapacity := refAgeFrames(want, 1.0, stop, maxSeconds)
		sameFloat(t, "elapsed", elapsed, wantElapsed)
		sameFloat(t, "capacity", capacity, wantCapacity)
		sameAging(t, got, want)
	})
}
