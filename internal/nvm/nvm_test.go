package nvm

import (
	"math"
	"runtime"
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
		f.ensureOrder()
		for _, lim := range f.lim().sorted {
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
	weakest := int(f.lim().order[0])
	f.InjectFault(weakest)
	nl := f.NextLimit()
	if nl <= f.lim().sorted[0] {
		t.Fatalf("NextLimit %v should skip the injected weakest byte (%v)", nl, f.lim().sorted[0])
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
// allocates nothing, and holds no limit storage and no pointer view: a
// DefaultConfig-sized array of 12,288 frames stays under 0.9 MB, about
// 65 bytes a frame (its header and its capacity byte).
func TestNewArrayAllocsPerFrame(t *testing.T) {
	allocs := func(sets, ways int) float64 {
		r := stats.NewRNG(1)
		return testing.AllocsPerRun(10, func() { NewArray(sets, ways, testModel, r, ByteDisabling) })
	}
	if small, large := allocs(4, 2), allocs(64, 12); large != small {
		t.Fatalf("NewArray allocates %v times for 4x2 frames but %v for 64x12", small, large)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	NewArray(1024, 12, testModel, stats.NewRNG(1), ByteDisabling)
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 900_000 {
		t.Fatalf("NewArray(1024, 12) allocates %d bytes, want under 0.9 MB", b)
	}
}

// TestSlabAllocatesOnFirstDraw pins the limit slab's allocation
// contract: an array's first draw allocates the whole slab at once, and
// every later draw, whether by wear, fault injection or NextLimit, takes
// its entry with no allocation. The first draw goes through Frame, so
// the count leaves out the pointer view Frames builds. mallocs counts
// every allocation in the process, so a first draw that does not count
// exactly one is measured again on a new array: a draw that allocates
// more does so every time.
func TestSlabAllocatesOnFirstDraw(t *testing.T) {
	var a *Array
	n := uint64(0)
	for try := 0; try < 3 && n != 1; try++ {
		a = NewArray(16, 4, testModel, stats.NewRNG(3), ByteDisabling)
		if a.slab.entries != nil {
			t.Fatal("NewArray allocated the limit slab")
		}
		n = mallocs(func() { a.Frame(0, 0).NextLimit() })
	}
	if n != 1 {
		t.Fatalf("the first draw allocated %d times, want 1", n)
	}
	frames := a.Frames()
	if len(a.slab.entries) != len(frames) {
		t.Fatalf("slab has %d entries for %d frames", len(a.slab.entries), len(frames))
	}
	i := 1
	draw := func() {
		f := frames[i]
		switch i % 3 {
		case 0:
			f.AddWear(math.MaxFloat64 / 2)
		case 1:
			f.InjectFault(i % FrameBytes)
		default:
			f.NextLimit()
		}
		i++
	}
	if n := testing.AllocsPerRun(len(frames)-2, draw); n != 0 {
		t.Fatalf("later draws allocated %v times each, want 0", n)
	}
	for j, f := range frames {
		if !f.drawn {
			t.Fatalf("frame %d was not drawn", j)
		}
	}
}

// mallocs returns the heap allocations one call of f makes. Unlike
// testing.AllocsPerRun it makes no warm-up call, so it sees a first
// call's allocations.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestNewArrayBuildsNoOrder pins the lazy limits and death order:
// sampled frames leave both unbuilt, a write below nextLimit's bound
// leaves them so, wear reaching the bound draws them without killing a
// byte below the first limit, and the first death, an injected fault or
// NextLimit builds them. Frame is a 64-byte header, one host cache
// line: the limits and the order live in the array's slab.
func TestNewArrayBuildsNoOrder(t *testing.T) {
	if got := unsafe.Sizeof(Frame{}); got != 64 {
		t.Fatalf("Frame is %d bytes, want 64", got)
	}
	a := NewArray(4, 3, testModel, stats.NewRNG(11), ByteDisabling)
	for i, f := range a.Frames() {
		if f.drawn {
			t.Fatalf("frame %d: limits drawn at set-up", i)
		}
	}
	// twin's frames are a's, drawn: NextLimit gives the exact first
	// death of each.
	twin := NewArray(4, 3, testModel, stats.NewRNG(11), ByteDisabling)
	first := func(i int) float64 { return twin.Frames()[i].NextLimit() }

	f := a.Frames()[0]
	if n := f.AddWear(f.nextLimit / 2); n != 0 || f.drawn {
		t.Fatalf("a write below the bound drew the limits (%d died)", n)
	}
	if n := f.AdvanceTo(first(0)); n == 0 || !f.drawn {
		t.Fatalf("first death (%d bytes) left the limits undrawn", n)
	}
	f = a.Frames()[1]
	bound := f.nextLimit
	if bound >= first(1) {
		t.Fatalf("bound %v is not below the first limit %v", bound, first(1))
	}
	if n := f.AdvanceTo(bound); n != 0 || !f.drawn {
		t.Fatalf("wear at the bound %v below the first limit %v: %d died, drawn %v", bound, first(1), n, f.drawn)
	}
	if f.nextLimit != first(1) {
		t.Fatalf("nextLimit %v after drawing, want %v", f.nextLimit, first(1))
	}
	f = a.Frames()[2]
	if f.InjectFault(5); !f.drawn {
		t.Fatal("InjectFault left the limits undrawn")
	}
	f = a.Frames()[3]
	if f.NextLimit(); !f.drawn {
		t.Fatal("NextLimit left the limits undrawn")
	}
}

// TestFirstDrawFillsSlab pins the one draw per array: the first frame
// that needs a limit fills every entry of the slab with its frame's
// eager limits in death order, as the reference sorts them, while every
// other frame stays undrawn on a bound at or below its smallest limit.
func TestFirstDrawFillsSlab(t *testing.T) {
	a := NewArray(4, 3, testModel, stats.NewRNG(13), ByteDisabling)
	a.Frame(2, 1).NextLimit()
	eager := stats.NewRNG(13)
	for i := range a.backing {
		f, ref := &a.backing[i], newRefFrame(eager, testModel, ByteDisabling)
		if want := i == 2*3+1; f.drawn != want {
			t.Fatalf("frame %d: drawn %v, want %v", i, f.drawn, want)
		}
		if !f.drawn && f.nextLimit > ref.limits[ref.order[0]] {
			t.Fatalf("frame %d: bound %v above its smallest limit %v", i, f.nextLimit, ref.limits[ref.order[0]])
		}
		for k, b := range ref.order {
			l := f.lim()
			if l.order[k] != b || math.Float64bits(l.sorted[k]) != math.Float64bits(ref.limits[b]) {
				t.Fatalf("frame %d death %d: byte %d limit %v, eager byte %d limit %v",
					i, k, l.order[k], l.sorted[k], b, ref.limits[b])
			}
		}
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
	f := NewFrame(paperModel, stats.NewRNG(1), ByteDisabling)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.RecordWrite(40)
	}
}

// paperModel is the paper's endurance distribution (§II-A).
var paperModel = EnduranceModel{Mean: 1e10, CV: 0.2}

// BenchmarkNewArray is the set-up cost of a QuickConfig-sized NVM array.
func BenchmarkNewArray(b *testing.B) {
	r := stats.NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewArray(256, 12, paperModel, r, ByteDisabling)
	}
}

// BenchmarkFrameSample is one frame's set-up: the skip pass.
// BenchmarkFrameEager is the same frame's limits drawn outright in one
// TruncNormals batch, as the slab's draw does before it sorts them.
func BenchmarkFrameSample(b *testing.B) {
	r := stats.NewRNG(1)
	f := NewFrame(paperModel, r, ByteDisabling)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f.sample(r, ByteDisabling)
	}
}

func BenchmarkFrameEager(b *testing.B) {
	r := stats.NewRNG(1)
	var lim [FrameBytes]float64
	sigma := paperModel.Mean * paperModel.CV
	for i := 0; i < b.N; i++ {
		r.TruncNormals(lim[:], paperModel.Mean, sigma, 1)
	}
}

// BenchmarkLimitSort is the rest of a frame's draw: putting its 66
// limits in death order, over 1024 frames of the paper's model.
func BenchmarkLimitSort(b *testing.B) {
	r := stats.NewRNG(1)
	sigma := paperModel.Mean * paperModel.CV
	lims := make([][FrameBytes]float64, 1024)
	for i := range lims {
		for j := range lims[i] {
			lims[i][j] = r.TruncNormal(paperModel.Mean, sigma, 1)
		}
	}
	var l frameLimits
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.sort(&lims[i%len(lims)], paperModel.Mean, sigma)
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
