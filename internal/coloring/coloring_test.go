package coloring

import (
	"reflect"
	"testing"

	"repro/internal/stats"
)

// TestXORPermutation checks every mask of a small power-of-two geometry:
// each is a bijection, mask 0 is the identity, and Epoch never reports a
// change (static coloring).
func TestXORPermutation(t *testing.T) {
	const sets = 16
	for mask := 0; mask < sets; mask++ {
		x, err := NewXOR(sets, mask)
		if err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if err := CheckPermutation(x); err != nil {
			t.Fatalf("mask %d: %v", mask, err)
		}
		if x.Epoch(nil) {
			t.Fatalf("mask %d: static xor reported a mapping change", mask)
		}
	}
	id, _ := NewXOR(sets, 0)
	for l := 0; l < sets; l++ {
		if id.Map(l) != l {
			t.Fatalf("identity xor maps %d -> %d", l, id.Map(l))
		}
	}
}

// TestRotationPermutationEveryEpoch is the property the LLC's row flush
// depends on: after every single Epoch call — advancing or not — the
// mapping is still a bijection. It also pins the advance cadence (true
// exactly every interval epochs) and full row coverage: with
// gcd(step, sets) = 1 a logical set visits every physical row.
func TestRotationPermutationEveryEpoch(t *testing.T) {
	const sets, interval, step = 96, 2, 37 // gcd(37, 96) = 1
	r, err := NewRotation(sets, interval, step)
	if err != nil {
		t.Fatal(err)
	}
	visited := map[int]bool{r.Map(0): true}
	advances := 0
	for epoch := 1; epoch <= 2*interval*sets; epoch++ {
		changed := r.Epoch(nil)
		if want := epoch%interval == 0; changed != want {
			t.Fatalf("epoch %d: changed=%v, want %v", epoch, changed, want)
		}
		if changed {
			advances++
		}
		if err := CheckPermutation(r); err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		visited[r.Map(0)] = true
	}
	if advances != 2*sets {
		t.Fatalf("advances = %d, want %d", advances, 2*sets)
	}
	if len(visited) != sets {
		t.Fatalf("logical set 0 visited %d/%d rows", len(visited), sets)
	}
}

// TestWearFeedbackDirectedSwap pins the scheme's core move on a
// hand-checkable geometry: one hot row swaps with the coldest row, and a
// second epoch with no new wear (all deltas zero) changes nothing.
func TestWearFeedbackDirectedSwap(t *testing.T) {
	s, err := NewWearFeedback(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Epoch([]float64{0, 10, 0, 0}) {
		t.Fatal("hot row 1 did not trigger a remap")
	}
	// Row 1 was hottest, row 0 coldest (tie on 0 wear breaks by index):
	// their logical preimages swap.
	want := []int{1, 0, 2, 3}
	got := []int{s.Map(0), s.Map(1), s.Map(2), s.Map(3)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mapping after swap = %v, want %v", got, want)
	}
	if err := CheckPermutation(s); err != nil {
		t.Fatal(err)
	}
	// Same cumulative wear again: every delta is zero, nothing may move.
	if s.Epoch([]float64{0, 10, 0, 0}) {
		t.Fatal("zero-delta epoch reported a change")
	}
	if got := []int{s.Map(0), s.Map(1), s.Map(2), s.Map(3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-delta epoch moved the mapping to %v", got)
	}
}

// TestWearFeedbackPermutationUnderLoad drives the remapper with a
// pseudo-random wear trajectory and checks the bijection after every
// epoch — including the epochs where Map is consulted between interval
// boundaries and nothing advanced.
func TestWearFeedbackPermutationUnderLoad(t *testing.T) {
	const sets, epochs = 64, 200
	s, err := NewWearFeedback(sets, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	cum := make([]float64, sets)
	changes := 0
	for e := 0; e < epochs; e++ {
		for i := range cum {
			cum[i] += rng.Float64() * float64(1+i%7)
		}
		if s.Epoch(cum) {
			changes++
		}
		if err := CheckPermutation(s); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	if changes == 0 {
		t.Fatal("skewed wear never triggered a remap")
	}
}

// TestWearFeedbackDeterminism re-runs the identical wear trajectory
// through two independent instances: the remap trajectory must match
// epoch by epoch. The scheme consumes no randomness and breaks ties by
// row index, so a seeded simulation replays to the same coloring.
func TestWearFeedbackDeterminism(t *testing.T) {
	const sets, epochs = 48, 120
	build := func() *WearFeedback {
		s, err := NewWearFeedback(sets, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := build(), build()
	rngA, rngB := stats.NewRNG(99), stats.NewRNG(99)
	cumA, cumB := make([]float64, sets), make([]float64, sets)
	for e := 0; e < epochs; e++ {
		for i := range cumA {
			cumA[i] += rngA.Float64()
			cumB[i] += rngB.Float64()
		}
		ca, cb := a.Epoch(cumA), b.Epoch(cumB)
		if ca != cb {
			t.Fatalf("epoch %d: change %v vs %v", e, ca, cb)
		}
		for l := 0; l < sets; l++ {
			if a.Map(l) != b.Map(l) {
				t.Fatalf("epoch %d: set %d maps to %d vs %d", e, l, a.Map(l), b.Map(l))
			}
		}
	}
}

// TestWearFeedbackIgnoresMismatchedWear pins the nil/short rowWear
// contract: a configuration without an NVM part passes nil and the
// mapping must stay put.
func TestWearFeedbackIgnoresMismatchedWear(t *testing.T) {
	s, err := NewWearFeedback(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Epoch(nil) || s.Epoch(make([]float64, 4)) {
		t.Fatal("mismatched rowWear advanced the mapping")
	}
	for l := 0; l < 8; l++ {
		if s.Map(l) != l {
			t.Fatalf("mapping moved without wear input: %d -> %d", l, s.Map(l))
		}
	}
}

// TestConstructorRejections is the validation table for all three
// scheme constructors.
func TestConstructorRejections(t *testing.T) {
	cases := []struct {
		name  string
		build func() error
	}{
		{"xor non-pow2", func() error { _, err := NewXOR(96, 1); return err }},
		{"xor zero sets", func() error { _, err := NewXOR(0, 0); return err }},
		{"xor mask negative", func() error { _, err := NewXOR(16, -1); return err }},
		{"xor mask too big", func() error { _, err := NewXOR(16, 16); return err }},
		{"rotate one set", func() error { _, err := NewRotation(1, 1, 1); return err }},
		{"rotate zero interval", func() error { _, err := NewRotation(16, 0, 1); return err }},
		{"rotate zero step", func() error { _, err := NewRotation(16, 1, 0); return err }},
		{"rotate step too big", func() error { _, err := NewRotation(16, 1, 16); return err }},
		{"wear one set", func() error { _, err := NewWearFeedback(1, 1, 1); return err }},
		{"wear zero interval", func() error { _, err := NewWearFeedback(16, 0, 1); return err }},
		{"wear zero pairs", func() error { _, err := NewWearFeedback(16, 1, 0); return err }},
		{"wear too many pairs", func() error { _, err := NewWearFeedback(16, 1, 9); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.build() == nil {
				t.Fatal("invalid geometry accepted")
			}
		})
	}
}

// TestCheckPermutationCatchesAliases proves the checker itself detects a
// broken mapping (it guards the whole property suite).
func TestCheckPermutationCatchesAliases(t *testing.T) {
	if err := CheckPermutation(brokenScheme{}); err == nil {
		t.Fatal("aliasing scheme passed CheckPermutation")
	}
}

type brokenScheme struct{}

func (brokenScheme) Name() string         { return "broken" }
func (brokenScheme) Sets() int            { return 4 }
func (brokenScheme) Map(int) int          { return 0 } // every set aliases row 0
func (brokenScheme) Epoch([]float64) bool { return false }
