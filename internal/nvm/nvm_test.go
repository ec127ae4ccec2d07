package nvm

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/stats"
)

var testModel = EnduranceModel{Mean: 1000, CV: 0.2}

func newTestFrame(gran Granularity) *Frame {
	return NewFrame(testModel, stats.NewRNG(42), gran)
}

func TestFrameInitialState(t *testing.T) {
	f := newTestFrame(ByteDisabling)
	if f.LiveBytes() != FrameBytes {
		t.Fatalf("live = %d, want %d", f.LiveBytes(), FrameBytes)
	}
	if f.EffectiveCapacity() != DataBytes {
		t.Fatalf("capacity = %d, want %d", f.EffectiveCapacity(), DataBytes)
	}
	if f.Dead() || f.Wear() != 0 {
		t.Fatal("fresh frame should be alive with zero wear")
	}
	if !f.Fits(64) || !f.Fits(1) {
		t.Fatal("fresh frame should fit any block size")
	}
}

func TestFrameEnduranceSampling(t *testing.T) {
	r := stats.NewRNG(7)
	var m stats.Mean
	for i := 0; i < 200; i++ {
		f := NewFrame(testModel, r, ByteDisabling)
		for _, lim := range f.limits {
			m.Add(lim)
		}
	}
	if math.Abs(m.Mean()-testModel.Mean) > testModel.Mean*0.02 {
		t.Errorf("sampled mean %.1f, want ~%.1f", m.Mean(), testModel.Mean)
	}
	cv := m.StdDev() / m.Mean()
	if math.Abs(cv-testModel.CV) > 0.02 {
		t.Errorf("sampled cv %.3f, want ~%.3f", cv, testModel.CV)
	}
}

func TestByteDisablingProgressive(t *testing.T) {
	f := newTestFrame(ByteDisabling)
	// Crank wear until first death.
	died := f.AdvanceTo(f.NextLimit())
	if died == 0 {
		t.Fatal("advancing to the next limit should kill at least one byte")
	}
	if f.Dead() {
		t.Fatal("byte-disabling frame should survive first byte death")
	}
	if f.LiveBytes() != FrameBytes-died {
		t.Fatalf("live = %d after %d deaths", f.LiveBytes(), died)
	}
	if f.EffectiveCapacity() != f.LiveBytes()-MetaBytes {
		t.Fatalf("capacity %d with %d live", f.EffectiveCapacity(), f.LiveBytes())
	}
	if f.FaultMap().Count() != died {
		t.Fatalf("fault map count %d, want %d", f.FaultMap().Count(), died)
	}
}

func TestFrameDisablingDiesAtFirstFault(t *testing.T) {
	f := newTestFrame(FrameDisabling)
	f.AdvanceTo(f.NextLimit())
	if !f.Dead() {
		t.Fatal("frame-disabling frame should die at first byte fault")
	}
	if f.EffectiveCapacity() != 0 || f.LiveBytes() != 0 {
		t.Fatal("dead frame must report zero capacity")
	}
}

func TestFrameDiesWhenTooSmall(t *testing.T) {
	f := newTestFrame(ByteDisabling)
	f.AddWear(math.MaxFloat64 / 2)
	if !f.Dead() {
		t.Fatal("frame with all bytes worn should be dead")
	}
}

func TestEffectiveCapacityMonotonic(t *testing.T) {
	f := newTestFrame(ByteDisabling)
	prev := f.EffectiveCapacity()
	for !f.Dead() {
		f.AdvanceTo(f.NextLimit())
		c := f.EffectiveCapacity()
		if c > prev {
			t.Fatalf("capacity increased %d -> %d", prev, c)
		}
		prev = c
	}
}

func TestRecordWriteWearAccounting(t *testing.T) {
	f := newTestFrame(ByteDisabling)
	f.RecordWrite(66)
	if f.PhaseWritten() != 66 {
		t.Fatalf("phase written = %d, want 66", f.PhaseWritten())
	}
	if math.Abs(f.Wear()-1.0) > 1e-12 {
		t.Fatalf("wear = %v, want 1.0 (66 bytes over 66 live)", f.Wear())
	}
	f.ResetPhase()
	if f.PhaseWritten() != 0 {
		t.Fatal("ResetPhase did not clear the counter")
	}
	if f.Wear() == 0 {
		t.Fatal("ResetPhase must not clear accumulated wear")
	}
}

func TestRecordWriteOnDeadFrame(t *testing.T) {
	f := newTestFrame(FrameDisabling)
	f.AddWear(math.MaxFloat64 / 2)
	if n := f.RecordWrite(10); n != 0 {
		t.Fatal("write to dead frame should be a no-op")
	}
	if f.PhaseWritten() != 0 {
		t.Fatal("dead frame should not accumulate phase writes")
	}
}

func TestInjectFault(t *testing.T) {
	f := newTestFrame(ByteDisabling)
	f.InjectFault(10)
	f.InjectFault(10) // idempotent
	if f.LiveBytes() != FrameBytes-1 {
		t.Fatalf("live = %d, want %d", f.LiveBytes(), FrameBytes-1)
	}
	if !f.FaultMap().Get(10) {
		t.Fatal("fault map missing injected fault")
	}
	// Later wear-driven deaths must not double count the injected byte.
	f.AddWear(math.MaxFloat64 / 2)
	if f.LiveBytes() != 0 && !f.Dead() {
		t.Fatal("frame should be fully dead")
	}
}

func TestNextLimitSkipsInjected(t *testing.T) {
	f := newTestFrame(ByteDisabling)
	f.ensureOrder()
	weakest := int(f.order[0])
	f.InjectFault(weakest)
	nl := f.NextLimit()
	if nl <= f.limits[weakest] {
		t.Fatalf("NextLimit %v should skip the injected weakest byte (%v)", nl, f.limits[weakest])
	}
}

func TestAdvanceToIsMonotonic(t *testing.T) {
	f := newTestFrame(ByteDisabling)
	f.AdvanceTo(500)
	w := f.Wear()
	if n := f.AdvanceTo(100); n != 0 || f.Wear() != w {
		t.Fatal("AdvanceTo backwards should be a no-op")
	}
}

func TestWearLevelCounter(t *testing.T) {
	var c WearLevelCounter
	c.Advance(10)
	if c.Value() != 10 {
		t.Fatalf("value = %d", c.Value())
	}
	c.Advance(FrameBytes)
	if c.Value() != 10 {
		t.Fatalf("wraparound: value = %d, want 10", c.Value())
	}
	c.Advance(-12)
	if c.Value() != FrameBytes-2 {
		t.Fatalf("negative advance: value = %d, want %d", c.Value(), FrameBytes-2)
	}
}

func TestScatterGatherIdentity(t *testing.T) {
	var fm FaultMap
	fm.Set(2)
	fm.Set(5)
	ecb := []byte{10, 20, 30, 40, 50}
	recb, mask, err := Scatter(ecb, fm, 3)
	if err != nil {
		t.Fatal(err)
	}
	if MaskBits(mask) != len(ecb) {
		t.Fatalf("write mask has %d bits, want %d", MaskBits(mask), len(ecb))
	}
	got, err := Gather(recb, fm, 3, len(ecb))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ecb {
		if got[i] != ecb[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], ecb[i])
		}
	}
}

func TestScatterSkipsFaultyBytes(t *testing.T) {
	var fm FaultMap
	fm.Set(0)
	fm.Set(1)
	ecb := []byte{0xAA, 0xBB}
	recb, mask, err := Scatter(ecb, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mask.Get(0) || mask.Get(1) {
		t.Fatal("write mask covers faulty bytes")
	}
	if recb[2] != 0xAA || recb[3] != 0xBB {
		t.Fatalf("scatter placed bytes at %v, want positions 2,3", recb[:6])
	}
}

func TestScatterRotation(t *testing.T) {
	var fm FaultMap
	ecb := []byte{1, 2, 3}
	recb, _, err := Scatter(ecb, fm, 64)
	if err != nil {
		t.Fatal(err)
	}
	if recb[64] != 1 || recb[65] != 2 || recb[0] != 3 {
		t.Fatalf("rotation wrap failed: %v %v %v", recb[64], recb[65], recb[0])
	}
}

func TestScatterOverflow(t *testing.T) {
	var fm FaultMap
	for i := 0; i < 60; i++ {
		fm.Set(i)
	}
	if _, _, err := Scatter(make([]byte, 10), fm, 0); err == nil {
		t.Fatal("scatter into too-small frame should error")
	}
}

// Property: gather∘scatter is the identity for arbitrary fault maps,
// counters and ECB lengths that fit.
func TestScatterGatherProperty(t *testing.T) {
	f := func(seed uint64, counter uint8, nFaults uint8) bool {
		r := stats.NewRNG(seed)
		var fm FaultMap
		faults := int(nFaults) % 30
		for i := 0; i < faults; i++ {
			fm.Set(r.Intn(FrameBytes))
		}
		live := FrameBytes - fm.Count()
		n := 1 + r.Intn(live)
		ecb := make([]byte, n)
		for i := range ecb {
			ecb[i] = byte(r.Uint32())
		}
		c := int(counter) % FrameBytes
		recb, mask, err := Scatter(ecb, fm, c)
		if err != nil {
			return false
		}
		if MaskBits(mask) != n {
			return false
		}
		got, err := Gather(recb, fm, c, n)
		if err != nil {
			return false
		}
		for i := range ecb {
			if got[i] != ecb[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIndexVectorMatchesPaperExample(t *testing.T) {
	// Fig. 5c analogue: 5-byte ECB into a frame where bytes 2 and 5 are
	// faulty, counter at 0: live positions 0,1,3,4,6 receive ECB 0..4.
	var fm FaultMap
	fm.Set(2)
	fm.Set(5)
	iv, err := BuildIndexVector(fm, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{0: 0, 1: 1, 3: 2, 4: 3, 6: 4}
	for pos, k := range iv {
		if w, ok := want[pos]; ok {
			if k != w {
				t.Errorf("I[%d] = %d, want %d", pos, k, w)
			}
		} else if k != -1 {
			t.Errorf("I[%d] = %d, want don't-care", pos, k)
		}
	}
}

func TestArrayBasics(t *testing.T) {
	a := NewArray(8, 4, testModel, stats.NewRNG(1), ByteDisabling)
	if a.Sets() != 8 || a.Ways() != 4 || len(a.Frames()) != 32 {
		t.Fatal("geometry wrong")
	}
	if a.EffectiveCapacityFraction() != 1.0 {
		t.Fatalf("fresh capacity = %v, want 1", a.EffectiveCapacityFraction())
	}
	if a.LiveFrames() != 32 {
		t.Fatal("all frames should start alive")
	}
	a.Frame(0, 0).RecordWrite(66)
	if a.PhaseBytesWritten() != 66 {
		t.Fatalf("phase bytes = %d", a.PhaseBytesWritten())
	}
	a.ResetPhase()
	if a.PhaseBytesWritten() != 0 {
		t.Fatal("phase counters not cleared")
	}
}

// TestNewArrayAllocsPerFrame pins set-up cost: building an array makes
// the same allocations whatever its frame count, because sampling a frame
// and ordering its byte deaths allocate nothing.
func TestNewArrayAllocsPerFrame(t *testing.T) {
	allocs := func(sets, ways int) float64 {
		r := stats.NewRNG(1)
		return testing.AllocsPerRun(10, func() { NewArray(sets, ways, testModel, r, ByteDisabling) })
	}
	if small, large := allocs(4, 2), allocs(64, 12); large != small {
		t.Fatalf("NewArray allocates %v times for 4x2 frames but %v for 64x12", small, large)
	}
}

// TestNewArrayBuildsNoOrder pins the lazy death order: sampled and
// restored frames leave it unbuilt, a write that kills no byte leaves it
// so, and the first death or injected fault builds it. Frame keeps its
// size, the unbuilt flag fitting in the header's padding.
func TestNewArrayBuildsNoOrder(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got != 648 {
		t.Fatalf("Frame is %d bytes, want 648", got)
	}
	a := NewArray(4, 3, testModel, stats.NewRNG(11), ByteDisabling)
	a.Frames()[1].AddWear(testModel.Mean) // kills about half its bytes: builds one order
	b, err := RestoreArray(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, arr := range []*Array{a, b} {
		name := "NewArray"
		if arr == b {
			name = "RestoreArray"
		}
		for i, f := range arr.Frames() {
			if f.sorted && !(arr == a && i == 1) {
				t.Fatalf("%s frame %d: order built at set-up", name, i)
			}
		}
		f := arr.Frames()[0]
		if n := f.AddWear(f.nextLimit / 2); n != 0 || f.sorted {
			t.Fatalf("%s: a write that kills no byte built the order (%d died)", name, n)
		}
		if n := f.AdvanceTo(f.nextLimit); n == 0 || !f.sorted {
			t.Fatalf("%s: first death (%d bytes) left the order unbuilt", name, n)
		}
		f = arr.Frames()[2]
		if f.InjectFault(5); !f.sorted {
			t.Fatalf("%s: InjectFault left the order unbuilt", name)
		}
	}
	f := b.Frames()[1] // aged, and restored with its order unbuilt
	if f.NextLimit(); !f.sorted {
		t.Fatal("NextLimit left the order unbuilt")
	}
}

func TestArrayCapacityDrops(t *testing.T) {
	a := NewArray(4, 2, testModel, stats.NewRNG(3), FrameDisabling)
	for _, f := range a.Frames() {
		f.AddWear(math.MaxFloat64 / 2)
	}
	if a.EffectiveCapacityFraction() != 0 || a.LiveFrames() != 0 {
		t.Fatal("fully worn array should have zero capacity")
	}
}

func TestMetadataOverhead(t *testing.T) {
	byteArr := NewArray(16, 12, testModel, stats.NewRNG(1), ByteDisabling)
	frameArr := NewArray(16, 12, testModel, stats.NewRNG(1), FrameDisabling)
	if byteArr.MetadataOverhead() != 16*12*66 {
		t.Fatalf("byte overhead = %d", byteArr.MetadataOverhead())
	}
	if frameArr.MetadataOverhead() != 16*12 {
		t.Fatalf("frame overhead = %d", frameArr.MetadataOverhead())
	}
	// Paper §V-G: fault map = 1 bit/byte = 66 bits per 66*8-bit frame
	// = 12.5% of the NVM data array.
	frac := float64(byteArr.MetadataOverhead()) / float64(byteArr.DataArrayBits())
	if math.Abs(frac-0.125) > 1e-9 {
		t.Fatalf("fault map fraction = %v, want 0.125", frac)
	}
}

func TestGranularityString(t *testing.T) {
	if ByteDisabling.String() != "byte" || FrameDisabling.String() != "frame" {
		t.Error("granularity names wrong")
	}
	if Granularity(9).String() == "" {
		t.Error("unknown granularity should render")
	}
}

func TestArrayPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewArray(0, ...) did not panic")
		}
	}()
	NewArray(0, 4, testModel, stats.NewRNG(1), ByteDisabling)
}

func BenchmarkRecordWrite(b *testing.B) {
	f := NewFrame(EnduranceModel{Mean: 1e10, CV: 0.2}, stats.NewRNG(1), ByteDisabling)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.RecordWrite(40)
	}
}

func BenchmarkScatter(b *testing.B) {
	var fm FaultMap
	fm.Set(7)
	fm.Set(31)
	ecb := make([]byte, 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Scatter(ecb, fm, i%FrameBytes); err != nil {
			b.Fatal(err)
		}
	}
}

func TestSetRemap(t *testing.T) {
	a := NewArray(8, 2, testModel, stats.NewRNG(5), ByteDisabling)
	f00 := a.Frame(0, 0)
	a.AdvanceSetRemap(1)
	if a.SetRemap() != 1 {
		t.Fatalf("remap = %d", a.SetRemap())
	}
	// Logical set 7 now maps to physical row 0.
	if a.Frame(7, 0) != f00 {
		t.Fatal("rotation mapping wrong")
	}
	if a.Frame(0, 0) == f00 {
		t.Fatal("logical set 0 should have moved off physical row 0")
	}
	a.AdvanceSetRemap(8)
	if a.SetRemap() != 1 {
		t.Fatalf("full-cycle rotation: remap = %d", a.SetRemap())
	}
	a.AdvanceSetRemap(-2)
	if a.SetRemap() != 7 {
		t.Fatalf("negative rotation: remap = %d", a.SetRemap())
	}
}

func TestSetRemapPreservesWearIdentity(t *testing.T) {
	a := NewArray(4, 1, testModel, stats.NewRNG(5), ByteDisabling)
	a.Frame(0, 0).RecordWrite(66) // physical row 0 takes wear
	a.AdvanceSetRemap(1)
	// The worn frame is now behind logical set 3.
	if a.Frame(3, 0).PhaseWritten() != 66 {
		t.Fatal("wear did not travel with the physical frame")
	}
	if a.Frame(0, 0).PhaseWritten() != 0 {
		t.Fatal("logical set 0 should see a fresh frame")
	}
}
