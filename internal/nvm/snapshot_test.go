package nvm

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSnapshotRoundtripFresh(t *testing.T) {
	a := NewArray(8, 4, testModel, stats.NewRNG(3), ByteDisabling)
	b, err := RestoreArray(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if b.Sets() != 8 || b.Ways() != 4 || b.Granularity() != ByteDisabling {
		t.Fatal("geometry lost")
	}
	if b.EffectiveCapacityFraction() != 1.0 {
		t.Fatal("fresh capacity lost")
	}
}

func TestSnapshotRoundtripAged(t *testing.T) {
	a := NewArray(4, 3, testModel, stats.NewRNG(9), ByteDisabling)
	// Age unevenly.
	for i, f := range a.Frames() {
		f.AddWear(float64(200 * (i + 1)))
	}
	a.Counter().Advance(13)
	a.AdvanceSetRemap(2)

	b, err := RestoreArray(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := b.EffectiveCapacityFraction(), a.EffectiveCapacityFraction(); got != want {
		t.Fatalf("capacity %v != %v", got, want)
	}
	if b.Counter().Value() != a.Counter().Value() {
		t.Fatal("wear-level counter lost")
	}
	if b.SetRemap() != a.SetRemap() {
		t.Fatal("set remap lost")
	}
	// Identical future evolution: applying the same wear to both arrays
	// yields identical capacities and fault maps.
	for i := range a.Frames() {
		a.Frames()[i].AddWear(500)
		b.Frames()[i].AddWear(500)
	}
	for i := range a.Frames() {
		fa, fb := a.Frames()[i], b.Frames()[i]
		if fa.LiveBytes() != fb.LiveBytes() || fa.Dead() != fb.Dead() {
			t.Fatalf("frame %d diverged after restore: %d/%v vs %d/%v",
				i, fa.LiveBytes(), fa.Dead(), fb.LiveBytes(), fb.Dead())
		}
		ma, mb := fa.FaultMap(), fb.FaultMap()
		for bit := 0; bit < FrameBytes; bit++ {
			if ma.Get(bit) != mb.Get(bit) {
				t.Fatalf("frame %d fault map diverged at byte %d", i, bit)
			}
		}
	}
}

func TestSnapshotGobStream(t *testing.T) {
	a := NewArray(4, 2, testModel, stats.NewRNG(5), FrameDisabling)
	a.Frames()[0].AddWear(math.MaxFloat64 / 2) // kill one frame
	var buf bytes.Buffer
	if err := a.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.LiveFrames() != a.LiveFrames() {
		t.Fatalf("live frames %d != %d", b.LiveFrames(), a.LiveFrames())
	}
	if !b.Frames()[0].Dead() {
		t.Fatal("dead frame resurrected")
	}
}

func TestSnapshotRejectsCorrupt(t *testing.T) {
	if _, err := RestoreArray(ArraySnapshot{Sets: 2, Ways: 2}); err == nil {
		t.Fatal("frame-count mismatch accepted")
	}
	if _, err := ReadSnapshot(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("garbage stream accepted")
	}
}

// Property: for arbitrary wear patterns, snapshot/restore preserves
// per-frame capacity, the next-death limit and the death order, also when
// every byte's limit ties (CV 0).
func TestSnapshotProperty(t *testing.T) {
	for _, model := range []EnduranceModel{testModel, {Mean: testModel.Mean, CV: 0}} {
		f := func(seed uint64, wears []uint16) bool {
			a := NewArray(2, 2, model, stats.NewRNG(seed), ByteDisabling)
			for i, w := range wears {
				if i >= len(a.Frames()) {
					break
				}
				a.Frames()[i].AddWear(float64(w))
			}
			b, err := RestoreArray(a.Snapshot())
			if err != nil {
				return false
			}
			for i := range a.Frames() {
				fa, fb := a.Frames()[i], b.Frames()[i]
				fa.ensureOrder()
				fb.ensureOrder()
				if fa.EffectiveCapacity() != fb.EffectiveCapacity() || fa.order != fb.order {
					return false
				}
				na, nb := fa.NextLimit(), fb.NextLimit()
				if na != nb && !(math.IsInf(na, 1) && math.IsInf(nb, 1)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("model %+v: %v", model, err)
		}
	}
}
