// Package coloring implements inter-set wear-leveling for the hybrid
// LLC: bijective logical-set → physical-row remapping schemes ("cache
// coloring" / set remapping). The paper's insertion policies level wear
// within a set; these schemes level it across sets, attacking the
// inter-set write variation Mittal's coloring work (arxiv 1310.8494)
// identifies as the remaining lifetime limiter under skewed traffic.
//
// A scheme maps the logical set index (block mod sets) to the physical
// directory/frame row. The mapping only changes inside Epoch, which the
// LLC calls exactly once per epoch boundary from its own EndEpoch. When
// Epoch reports a change the LLC flushes the remapped rows, since their
// resident blocks' rows moved under them.
//
// All schemes are deterministic: the wear-feedback scheme breaks wear
// ties by row index and consumes no randomness, so a fixed seed yields
// a fixed remap trajectory.
package coloring

import (
	"fmt"
	"sort"
)

// Scheme is a set-index remapping policy. Map must be a bijection on
// [0, Sets()) between any two Epoch calls; Epoch advances the scheme's
// internal epoch counter and reports whether the mapping changed.
type Scheme interface {
	// Name returns the scheme's registry name ("xor", "rotate", "wear").
	Name() string
	// Sets returns the set count the scheme was built for.
	Sets() int
	// Map returns the physical row for a logical set index.
	Map(logical int) int
	// Epoch is called once per epoch boundary with the cumulative
	// per-physical-row wear (nil when the configuration has no NVM
	// part). It returns true iff the mapping changed, in which case the
	// caller must flush any state keyed by physical row.
	Epoch(rowWear []float64) bool
}

// XOR is static address-bit coloring: physical = logical XOR mask. It
// scatters low-index hot sets across the row space once, at zero
// runtime cost, but never adapts. Requires a power-of-two set count
// (the XOR must stay inside [0, sets)). Mask 0 is the identity.
type XOR struct {
	sets, mask int
}

// NewXOR builds a static XOR coloring.
func NewXOR(sets, mask int) (*XOR, error) {
	if sets < 1 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("coloring: xor needs a power-of-two set count, got %d", sets)
	}
	if mask < 0 || mask >= sets {
		return nil, fmt.Errorf("coloring: xor mask %d outside [0,%d)", mask, sets)
	}
	return &XOR{sets: sets, mask: mask}, nil
}

// Name implements Scheme.
func (x *XOR) Name() string { return "xor" }

// Sets implements Scheme.
func (x *XOR) Sets() int { return x.sets }

// Map implements Scheme.
func (x *XOR) Map(logical int) int { return logical ^ x.mask }

// Epoch implements Scheme; a static coloring never changes.
func (x *XOR) Epoch([]float64) bool { return false }

// Rotation shifts the whole mapping by step rows every interval epochs
// (a Start-Gap-style scheme lifted to the set dimension): physical =
// (logical + offset) mod sets. It guarantees every logical set visits
// every row over sets/gcd(step,sets) advances, regardless of traffic.
type Rotation struct {
	sets, interval, step int
	offset               int
	epochs               int
}

// NewRotation builds a periodic rotation advancing by step rows every
// interval epochs.
func NewRotation(sets, interval, step int) (*Rotation, error) {
	if sets < 2 {
		return nil, fmt.Errorf("coloring: rotation needs >= 2 sets, got %d", sets)
	}
	if interval < 1 {
		return nil, fmt.Errorf("coloring: rotation interval %d, want >= 1", interval)
	}
	if step < 1 || step >= sets {
		return nil, fmt.Errorf("coloring: rotation step %d outside [1,%d)", step, sets)
	}
	return &Rotation{sets: sets, interval: interval, step: step}, nil
}

// Name implements Scheme.
func (r *Rotation) Name() string { return "rotate" }

// Sets implements Scheme.
func (r *Rotation) Sets() int { return r.sets }

// Map implements Scheme.
func (r *Rotation) Map(logical int) int {
	p := logical + r.offset
	if p >= r.sets {
		p -= r.sets
	}
	return p
}

// Offset returns the current rotation offset (tests and diagnostics).
func (r *Rotation) Offset() int { return r.offset }

// Epoch implements Scheme: advance the offset every interval epochs.
func (r *Rotation) Epoch([]float64) bool {
	r.epochs++
	if r.epochs%r.interval != 0 {
		return false
	}
	r.offset = (r.offset + r.step) % r.sets
	return true
}

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
}

// NewWearFeedback builds a wear-feedback remapper swapping up to pairs
// hottest/coldest row pairs every interval epochs.
func NewWearFeedback(sets, interval, pairs int) (*WearFeedback, error) {
	if sets < 2 {
		return nil, fmt.Errorf("coloring: wear feedback needs >= 2 sets, got %d", sets)
	}
	if interval < 1 {
		return nil, fmt.Errorf("coloring: wear interval %d, want >= 1", interval)
	}
	if pairs < 1 || pairs > sets/2 {
		return nil, fmt.Errorf("coloring: wear pairs %d outside [1,%d]", pairs, sets/2)
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
	}
	for i := 0; i < sets; i++ {
		s.perm[i] = i
		s.inv[i] = i
	}
	return s, nil
}

// Name implements Scheme.
func (s *WearFeedback) Name() string { return "wear" }

// Sets implements Scheme.
func (s *WearFeedback) Sets() int { return s.sets }

// Map implements Scheme.
func (s *WearFeedback) Map(logical int) int { return s.perm[logical] }

// Epoch implements Scheme. rowWear is cumulative physical-row wear; the
// scheme differences it against its snapshot from the previous advance.
func (s *WearFeedback) Epoch(rowWear []float64) bool {
	s.epochs++
	if s.epochs%s.interval != 0 || len(rowWear) != s.sets {
		return false
	}
	for i, w := range rowWear {
		s.delta[i] = w - s.prev[i]
		s.prev[i] = w
		s.order[i] = i
	}
	// Ascending by recent wear, ties by row index: order[0] is the
	// coldest row, order[sets-1] the hottest.
	sort.Slice(s.order, func(a, b int) bool {
		ra, rb := s.order[a], s.order[b]
		if s.delta[ra] != s.delta[rb] {
			return s.delta[ra] < s.delta[rb]
		}
		return ra < rb
	})
	changed := false
	for k := 0; k < s.pairs; k++ {
		cold, hot := s.order[k], s.order[s.sets-1-k]
		if cold == hot || s.delta[hot] <= s.delta[cold] {
			break // remaining pairs are even closer in wear
		}
		lh, lc := s.inv[hot], s.inv[cold]
		s.perm[lh], s.perm[lc] = cold, hot
		s.inv[hot], s.inv[cold] = lc, lh
		changed = true
	}
	return changed
}

// CheckPermutation verifies that a scheme's current mapping is a
// bijection on [0, Sets()): every physical row has exactly one logical
// preimage. The property suites call it after every epoch.
func CheckPermutation(s Scheme) error {
	n := s.Sets()
	seen := make([]bool, n)
	for l := 0; l < n; l++ {
		p := s.Map(l)
		if p < 0 || p >= n {
			return fmt.Errorf("coloring: %s maps set %d outside [0,%d)", s.Name(), l, n)
		}
		if seen[p] {
			return fmt.Errorf("coloring: %s aliases physical row %d", s.Name(), p)
		}
		seen[p] = true
	}
	return nil
}
