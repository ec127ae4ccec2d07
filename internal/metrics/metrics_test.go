package metrics

import (
	"reflect"
	"testing"
)

func TestCounterReadsThroughPointer(t *testing.T) {
	r := NewRegistry()
	var hits uint64
	r.Counter("llc.hits", &hits)
	hits = 7
	if v, ok := r.CounterValue("llc.hits"); !ok || v != 7 {
		t.Fatalf("CounterValue = %d, %v; want 7, true", v, ok)
	}
	hits++
	if v, _ := r.CounterValue("llc.hits"); v != 8 {
		t.Fatalf("counter did not track the field: %d", v)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	var a, b uint64
	var g float64
	r.Counter("x.a", &a)
	r.Counter("x.b", &b)
	r.Gauge("x.g", &g)

	a, b, g = 10, 3, 0.5
	before := r.Snapshot()
	a, b, g = 25, 3, 0.9
	after := r.Snapshot()

	d := after.Delta(before)
	if d.Counter("x.a") != 15 || d.Counter("x.b") != 0 {
		t.Fatalf("delta counters = %v", d.Counters)
	}
	if d.Gauge("x.g") != 0.9 {
		t.Fatalf("delta gauge = %v, want the later value", d.Gauge("x.g"))
	}
	// Snapshots are value captures: later mutation must not leak in.
	a = 99
	if after.Counter("x.a") != 25 {
		t.Fatal("snapshot aliased live counter")
	}
}

func TestDeltaClampsOnReset(t *testing.T) {
	r := NewRegistry()
	var a uint64 = 50
	r.Counter("x.a", &a)
	before := r.Snapshot()
	a = 10 // owner reset mid-window
	if d := r.Snapshot().Delta(before); d.Counter("x.a") != 0 {
		t.Fatalf("shrunk counter delta = %d, want clamp to 0", d.Counter("x.a"))
	}
}

func TestFuncBackedAndFilter(t *testing.T) {
	r := NewRegistry()
	var writes uint64
	r.Counter("llc.nvm.block_writes", &writes)
	r.CounterFunc("llc.nvm.derived", func() uint64 { return writes * 2 })
	r.GaugeFunc("core0.ipc", func() float64 { return 1.5 })
	writes = 4

	s := r.Snapshot()
	if s.Counter("llc.nvm.derived") != 8 {
		t.Fatalf("derived counter = %d", s.Counter("llc.nvm.derived"))
	}
	sub := s.Filter("llc.nvm")
	want := []string{"llc.nvm.block_writes", "llc.nvm.derived"}
	if got := sub.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("filtered names = %v, want %v", got, want)
	}
	if len(s.Filter("llc.nv").Counters) != 0 {
		t.Fatal("prefix filter matched a partial segment")
	}
}

func TestNameValidation(t *testing.T) {
	valid := []string{"a", "llc.nvm.block_writes", "core0.ipc", "x_1.y"}
	for _, n := range valid {
		if !ValidName(n) {
			t.Errorf("ValidName(%q) = false", n)
		}
	}
	invalid := []string{"", ".", "a.", ".a", "a..b", "A.b", "a-b", "a b"}
	for _, n := range invalid {
		if ValidName(n) {
			t.Errorf("ValidName(%q) = true", n)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	var v uint64
	r.Counter("dup", &v)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("dup", func() float64 { return 0 })
}

func TestEpochRingWraparound(t *testing.T) {
	ring := NewEpochRing(3, "ipc", "bytes")
	for e := 0; e < 5; e++ {
		ring.Record(e, uint64(e)*100, float64(e), float64(e)*10)
	}
	if ring.Len() != 3 || ring.Capacity() != 3 {
		t.Fatalf("len/cap = %d/%d", ring.Len(), ring.Capacity())
	}
	got := ring.Samples()
	for i, wantEpoch := range []int{2, 3, 4} {
		if got[i].Epoch != wantEpoch {
			t.Fatalf("sample %d epoch = %d, want %d (oldest-first)", i, got[i].Epoch, wantEpoch)
		}
	}
	if s := ring.Series("bytes"); !reflect.DeepEqual(s, []float64{20, 30, 40}) {
		t.Fatalf("series = %v", s)
	}
	if ring.Series("nope") != nil {
		t.Fatal("unknown column returned a series")
	}
}

// TestEpochRingReusesStorage pins the ring's storage discipline: samples
// handed out by Samples survive later overwrites, and once full the ring
// records without allocating.
func TestEpochRingReusesStorage(t *testing.T) {
	ring := NewEpochRing(ringChunk+2, "a", "b")
	for e := 0; e < ringChunk+2; e++ {
		ring.Record(e, 0, float64(e), -float64(e))
	}
	before := ring.Samples()
	e := ringChunk + 2
	if allocs := testing.AllocsPerRun(50, func() {
		ring.Record(e, 0, float64(e), -float64(e))
		e++
	}); allocs != 0 {
		t.Fatalf("recording into a full ring allocates %.1f times", allocs)
	}
	for i, s := range before {
		if s.Epoch != i || s.Values[0] != float64(i) || s.Values[1] != -float64(i) {
			t.Fatalf("earlier sample %d changed to %+v", i, s)
		}
	}
	last := ring.Samples()[ring.Len()-1]
	if last.Epoch != e-1 || last.Values[0] != float64(e-1) {
		t.Fatalf("newest sample %+v, want epoch %d", last, e-1)
	}
}

func TestEpochRingDefaults(t *testing.T) {
	ring := NewEpochRing(0, "ipc")
	if ring.Capacity() != DefaultEpochRingCapacity {
		t.Fatalf("capacity = %d", ring.Capacity())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("arity mismatch did not panic")
		}
	}()
	ring.Record(0, 0, 1, 2)
}
