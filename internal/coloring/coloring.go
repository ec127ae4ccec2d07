// Package coloring implements inter-set wear-leveling for the hybrid
// LLC: a bijective logical-set → physical-row remap ("cache coloring" /
// set remapping). The paper's insertion policies level wear within a
// set; this scheme levels it across sets, attacking the inter-set write
// variation Mittal's coloring work (arxiv 1310.8494) identifies as the
// remaining lifetime limiter under skewed traffic.
//
// The scheme maps the logical set index (block mod sets) to the
// physical directory/frame row. The mapping only changes inside Epoch,
// which the LLC calls exactly once per epoch boundary from its own
// EndEpoch. Epoch reports the physical rows whose logical preimage
// changed, and the LLC flushes exactly those rows, since their resident
// blocks' rows moved under them.
//
// The scheme is deterministic: it breaks wear ties by row index and
// consumes no randomness, so a fixed seed yields a fixed remap
// trajectory.
package coloring

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// MaxInterval bounds the epoch interval between advances
// (resource-abuse ceiling, same spirit as the geometry limits).
const MaxInterval = 1 << 20

// WearFeedback swaps the preimages of the hottest and coldest physical
// rows every interval epochs, judged by wear accumulated since the
// previous advance (deltas, not cumulative wear — a row that was hot
// long ago but has cooled must not keep ping-ponging). Up to pairs
// hot/cold pairs swap per advance; ties break by row index, so the
// trajectory is a pure function of the wear history.
type WearFeedback struct {
	sets, interval, pairs int
	epochs                int
	perm                  []int // logical -> physical
	inv                   []int // physical -> logical
	prev                  []float64
	delta                 []float64
	order                 []int
	moved                 []int // rows the last Epoch remapped
}

// CheckWearFeedback reports every way the geometry and knobs fall
// outside what NewWearFeedback accepts, without building the scheme.
// The configuration boundary calls it, so the bounds live here only.
func CheckWearFeedback(sets, interval, pairs int) error {
	var errs []error
	if sets < 2 {
		errs = append(errs, fmt.Errorf("coloring: wear needs >= 2 sets, got %d", sets))
	}
	if interval < 1 || interval > MaxInterval {
		errs = append(errs, fmt.Errorf("coloring: wear interval %d outside [1,%d]", interval, MaxInterval))
	}
	if pairs < 1 || pairs > sets/2 {
		errs = append(errs, fmt.Errorf("coloring: wear pairs %d outside [1,%d]", pairs, sets/2))
	}
	return errors.Join(errs...)
}

// NewWearFeedback builds a wear-feedback remapper swapping up to pairs
// hottest/coldest row pairs every interval epochs.
func NewWearFeedback(sets, interval, pairs int) (*WearFeedback, error) {
	if err := CheckWearFeedback(sets, interval, pairs); err != nil {
		return nil, err
	}
	s := &WearFeedback{
		sets:     sets,
		interval: interval,
		pairs:    pairs,
		perm:     make([]int, sets),
		inv:      make([]int, sets),
		prev:     make([]float64, sets),
		delta:    make([]float64, sets),
		order:    make([]int, sets),
		moved:    make([]int, 0, 2*pairs),
	}
	for i := 0; i < sets; i++ {
		s.perm[i] = i
		s.inv[i] = i
	}
	return s, nil
}

// Map returns the physical row for a logical set index.
func (s *WearFeedback) Map(logical int) int { return s.perm[logical] }

// Epoch advances the epoch counter and, every interval epochs, swaps
// hot and cold rows. rowWear is cumulative physical-row wear; the scheme
// differences it against its snapshot from the previous advance, and
// leaves the mapping alone when rowWear does not cover every row (nil
// without an NVM part). It returns the physical rows whose logical
// preimage changed, ascending — empty when nothing moved. The slice is
// owned by the scheme and reused by the next call.
func (s *WearFeedback) Epoch(rowWear []float64) []int {
	s.moved = s.moved[:0]
	s.epochs++
	if s.epochs%s.interval != 0 || len(rowWear) != s.sets {
		return s.moved
	}
	for i, w := range rowWear {
		s.delta[i] = w - s.prev[i]
		s.prev[i] = w
		s.order[i] = i
	}
	// Ascending by recent wear, ties by row index: order[0] is the
	// coldest row, order[sets-1] the hottest.
	slices.SortFunc(s.order, func(a, b int) int {
		if c := cmp.Compare(s.delta[a], s.delta[b]); c != 0 {
			return c
		}
		return a - b
	})
	for k := 0; k < s.pairs; k++ {
		cold, hot := s.order[k], s.order[s.sets-1-k]
		if cold == hot || s.delta[hot] <= s.delta[cold] {
			break // remaining pairs are even closer in wear
		}
		lh, lc := s.inv[hot], s.inv[cold]
		s.perm[lh], s.perm[lc] = cold, hot
		s.inv[hot], s.inv[cold] = lc, lh
		s.moved = append(s.moved, cold, hot)
	}
	slices.Sort(s.moved)
	return s.moved
}
