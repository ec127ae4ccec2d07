package nvm

import (
	"math"
	"testing"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// TestArrayStatsSinglePass cross-checks the one-pass aggregates against
// the array's per-method answers after real traffic and aging.
func TestArrayStatsSinglePass(t *testing.T) {
	a := NewArray(8, 4, testModel, stats.NewRNG(7), ByteDisabling)
	var written uint64
	for i, f := range a.Frames() {
		n := 10 + i%7
		for j := 0; j < n; j++ {
			f.RecordWrite(40)
		}
		written += uint64(40 * n)
		f.AddWear(testModel.Mean * float64(i) / 16) // age unevenly; kills some
	}
	st := a.Stats()
	if st.BytesWritten != written {
		t.Errorf("BytesWritten %d, want %d", st.BytesWritten, written)
	}
	if st.PhaseBytesWritten != a.PhaseBytesWritten() {
		t.Errorf("PhaseBytesWritten %d, want %d", st.PhaseBytesWritten, a.PhaseBytesWritten())
	}
	if st.LiveFrames != a.LiveFrames() {
		t.Errorf("LiveFrames %d, want %d", st.LiveFrames, a.LiveFrames())
	}
	if st.DeadFrames != len(a.Frames())-a.LiveFrames() {
		t.Errorf("DeadFrames %d", st.DeadFrames)
	}
	if st.DeadFrames == 0 {
		t.Error("aging killed no frames; test exercises nothing")
	}
	if math.Abs(st.CapacityFraction-a.EffectiveCapacityFraction()) > 1e-12 {
		t.Errorf("CapacityFraction %v, want %v", st.CapacityFraction, a.EffectiveCapacityFraction())
	}
	var faulty int
	var wearMax, wearSum float64
	for _, f := range a.Frames() {
		faulty += f.FaultyBytes()
		wearSum += f.Wear()
		if f.Wear() > wearMax {
			wearMax = f.Wear()
		}
	}
	if st.FaultyBytes != faulty {
		t.Errorf("FaultyBytes %d, want %d", st.FaultyBytes, faulty)
	}
	if st.WearMax != wearMax {
		t.Errorf("WearMax %v, want %v", st.WearMax, wearMax)
	}
	if math.Abs(st.WearMean-wearSum/float64(len(a.Frames()))) > 1e-9 {
		t.Errorf("WearMean %v", st.WearMean)
	}
}

// TestArrayRegisterMetrics verifies the nvm.array.* registry subtree: the
// snapshot hook recomputes the aggregates once per snapshot and the
// gauges read the cache.
func TestArrayRegisterMetrics(t *testing.T) {
	a := NewArray(4, 2, testModel, stats.NewRNG(9), ByteDisabling)
	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg)

	a.Frames()[0].RecordWrite(66)
	s1 := reg.Snapshot()
	if s1.Counter("nvm.array.bytes_written") != 66 {
		t.Errorf("bytes_written = %d", s1.Counter("nvm.array.bytes_written"))
	}
	if s1.Gauge("nvm.array.live_frames") != 8 || s1.Gauge("nvm.array.dead_frames") != 0 {
		t.Errorf("frame gauges: %v live, %v dead",
			s1.Gauge("nvm.array.live_frames"), s1.Gauge("nvm.array.dead_frames"))
	}
	if s1.Gauge("nvm.array.capacity_fraction") != 1 {
		t.Errorf("fresh capacity = %v", s1.Gauge("nvm.array.capacity_fraction"))
	}

	// Kill a frame and advance the wear-level machinery; the next
	// snapshot must see all of it.
	a.Frames()[1].AddWear(testModel.Mean * 10)
	a.Counter().Advance(3)
	a.AdvanceSetRemap(1)
	s2 := reg.Snapshot()
	if s2.Gauge("nvm.array.dead_frames") != 1 {
		t.Errorf("dead_frames = %v", s2.Gauge("nvm.array.dead_frames"))
	}
	if s2.Gauge("nvm.array.capacity_fraction") >= 1 {
		t.Error("capacity did not drop after killing a frame")
	}
	if s2.Gauge("nvm.array.wear_max") < testModel.Mean {
		t.Errorf("wear_max = %v", s2.Gauge("nvm.array.wear_max"))
	}
	if s2.Gauge("nvm.array.wearlevel_counter") != 3 || s2.Gauge("nvm.array.set_remap") != 1 {
		t.Errorf("rearrangement gauges: counter %v remap %v",
			s2.Gauge("nvm.array.wearlevel_counter"), s2.Gauge("nvm.array.set_remap"))
	}
	// Delta semantics across the two snapshots: counters subtract.
	if d := s2.Delta(s1); d.Counter("nvm.array.bytes_written") != 0 {
		t.Errorf("bytes_written delta = %d, want 0", d.Counter("nvm.array.bytes_written"))
	}
}

// TestTotalWrittenSurvivesPhaseReset pins the counter split: phaseWritten
// resets, totalWritten accumulates for the frame's life.
func TestTotalWrittenSurvivesPhaseReset(t *testing.T) {
	f := NewFrame(testModel, stats.NewRNG(3), ByteDisabling)
	f.RecordWrite(30)
	f.RecordWrite(36)
	if f.PhaseWritten() != 66 || f.TotalWritten() != 66 {
		t.Fatalf("phase/total = %d/%d", f.PhaseWritten(), f.TotalWritten())
	}
	f.ResetPhase()
	if f.PhaseWritten() != 0 || f.TotalWritten() != 66 {
		t.Fatalf("after reset: phase/total = %d/%d", f.PhaseWritten(), f.TotalWritten())
	}
	if got := f.FaultyBytes(); got != 0 {
		t.Fatalf("fresh frame has %d faulty bytes", got)
	}
	f.InjectFault(5)
	if got := f.FaultyBytes(); got != 1 {
		t.Fatalf("FaultyBytes = %d after one injected fault", got)
	}
}

// TestFramesViewOnDemand pins the pointer view: a registry snapshot of
// an unaged array leaves it unbuilt, and once built it names the frames
// Frame returns, physical row-major while the set remap is 0.
func TestFramesViewOnDemand(t *testing.T) {
	a := NewArray(8, 4, testModel, stats.NewRNG(17), ByteDisabling)
	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg)
	if reg.Snapshot(); a.frames != nil {
		t.Fatal("a registry snapshot built the frame view")
	}
	frames := a.Frames()
	if len(frames) != 8*4 {
		t.Fatalf("view has %d frames, want 32", len(frames))
	}
	for i, f := range frames {
		if f != a.Frame(i/4, i%4) {
			t.Fatalf("Frames()[%d] is not Frame(%d, %d)", i, i/4, i%4)
		}
	}
	if &a.Frames()[0] != &frames[0] {
		t.Fatal("Frames built a second view")
	}
}
