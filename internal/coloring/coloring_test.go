package coloring

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/stats"
)

// TestWearFeedbackDirectedSwap pins the scheme's core move on a
// hand-checkable geometry: one hot row swaps with the coldest row, and a
// second epoch with no new wear (all deltas zero) changes nothing.
func TestWearFeedbackDirectedSwap(t *testing.T) {
	s, err := NewWearFeedback(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 was hottest, row 0 coldest (tie on 0 wear breaks by index):
	// their logical preimages swap, and Epoch reports both rows.
	if moved := s.Epoch([]float64{0, 10, 0, 0}); !reflect.DeepEqual(moved, []int{0, 1}) {
		t.Fatalf("hot row 1 reported moved rows %v, want [0 1]", moved)
	}
	want := []int{1, 0, 2, 3}
	got := []int{s.Map(0), s.Map(1), s.Map(2), s.Map(3)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mapping after swap = %v, want %v", got, want)
	}
	if err := checkPermutation(s.Map, 4); err != nil {
		t.Fatal(err)
	}
	// Same cumulative wear again: every delta is zero, nothing may move.
	if moved := s.Epoch([]float64{0, 10, 0, 0}); len(moved) != 0 {
		t.Fatalf("zero-delta epoch reported moved rows %v", moved)
	}
	if got := []int{s.Map(0), s.Map(1), s.Map(2), s.Map(3)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("zero-delta epoch moved the mapping to %v", got)
	}
}

// TestWearFeedbackPermutationUnderLoad drives the remapper with a
// pseudo-random wear trajectory and checks the bijection after every
// epoch — including the epochs where Map is consulted between interval
// boundaries and nothing advanced. It also pins the Epoch contract the
// LLC's flush relies on: the reported rows, ascending, are exactly the
// rows whose logical preimage changed.
func TestWearFeedbackPermutationUnderLoad(t *testing.T) {
	const sets, epochs = 64, 200
	s, err := NewWearFeedback(sets, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	cum := make([]float64, sets)
	before := make([]int, sets)
	changes := 0
	for e := 0; e < epochs; e++ {
		for i := range cum {
			cum[i] += rng.Float64() * float64(1+i%7)
		}
		copy(before, s.inv)
		moved := s.Epoch(cum)
		var want []int
		for row := range before {
			if s.inv[row] != before[row] {
				want = append(want, row)
			}
		}
		if !slices.Equal(moved, want) {
			t.Fatalf("epoch %d: reported rows %v, preimages changed on %v", e, moved, want)
		}
		if len(moved) > 0 {
			changes++
		}
		if err := checkPermutation(s.Map, sets); err != nil {
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
		if ma, mb := a.Epoch(cumA), b.Epoch(cumB); !slices.Equal(ma, mb) {
			t.Fatalf("epoch %d: moved rows %v vs %v", e, ma, mb)
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
	if len(s.Epoch(nil)) != 0 || len(s.Epoch(make([]float64, 4))) != 0 {
		t.Fatal("mismatched rowWear advanced the mapping")
	}
	for l := 0; l < 8; l++ {
		if s.Map(l) != l {
			t.Fatalf("mapping moved without wear input: %d -> %d", l, s.Map(l))
		}
	}
}

// TestConstructorRejections is the validation table for the scheme's
// constructor.
func TestConstructorRejections(t *testing.T) {
	cases := []struct {
		name  string
		build func() error
	}{
		{"wear one set", func() error { _, err := NewWearFeedback(1, 1, 1); return err }},
		{"wear zero interval", func() error { _, err := NewWearFeedback(16, 0, 1); return err }},
		{"wear interval too big", func() error { _, err := NewWearFeedback(16, MaxInterval+1, 1); return err }},
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

// checkPermutation verifies that a mapping is a bijection on [0, sets):
// every physical row has exactly one logical preimage. The property
// tests call it after every epoch.
func checkPermutation(mapFn func(int) int, sets int) error {
	seen := make([]bool, sets)
	for l := 0; l < sets; l++ {
		p := mapFn(l)
		if p < 0 || p >= sets {
			return fmt.Errorf("set %d maps outside [0,%d)", l, sets)
		}
		if seen[p] {
			return fmt.Errorf("physical row %d aliased", p)
		}
		seen[p] = true
	}
	return nil
}

// TestCheckPermutationCatchesAliases proves the checker itself detects a
// broken mapping (it guards the whole property suite).
func TestCheckPermutationCatchesAliases(t *testing.T) {
	aliasing := func(int) int { return 0 } // every set aliases row 0
	if err := checkPermutation(aliasing, 4); err == nil {
		t.Fatal("aliasing mapping passed checkPermutation")
	}
}
