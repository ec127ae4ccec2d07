package dueling

import (
	"reflect"
	"testing"
)

// Differential proof that the N-way tournament subsumes the legacy CPth
// dueling path: a 2-candidate tournament whose candidates carry the same
// CPth values must be bit-exact with NewWithCandidates on the same event
// stream — same per-set thresholds after every epoch, same winner
// history.

// lcg is a tiny deterministic generator so the vote stream is fixed.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r) >> 33
}

func TestTwoCandidateTournamentMatchesLegacySequential(t *testing.T) {
	const sets = 128
	for _, params := range []struct{ th, tw float64 }{{0, 0}, {4, 5}} {
		legacy := NewWithCandidates(sets, []int{44, 58}, params.th, params.tw)
		tourn := NewTournament(sets, []Candidate{
			{Name: "CA_RWR@44", CPth: 44, Payload: 0},
			{Name: "CA_RWR@58", CPth: 58, Payload: 1},
		}, 0, params.th, params.tw)

		rng := lcg(9)
		for epoch := 0; epoch < 20; epoch++ {
			for i := 0; i < 4000; i++ {
				set := int(rng.next() % sets)
				switch rng.next() % 3 {
				case 0:
					legacy.RecordHit(set)
					tourn.RecordHit(set)
				default:
					n := int(rng.next() % 80)
					legacy.RecordNVMBytes(set, n)
					tourn.RecordNVMBytes(set, n)
				}
			}
			legacy.EndEpoch()
			tourn.EndEpoch()
			for s := 0; s < sets; s++ {
				if legacy.CPthFor(s) != tourn.CPthFor(s) {
					t.Fatalf("th=%v: epoch %d set %d: legacy CPth %d, tournament %d",
						params.th, epoch, s, legacy.CPthFor(s), tourn.CPthFor(s))
				}
			}
			if legacy.WinnerIndex() != tourn.WinnerIndex() {
				t.Fatalf("th=%v: epoch %d: winner index %d vs %d",
					params.th, epoch, legacy.WinnerIndex(), tourn.WinnerIndex())
			}
		}
		if !reflect.DeepEqual(legacy.History, tourn.History) {
			t.Fatalf("th=%v: history diverged:\nlegacy %v\ntourn  %v", params.th, legacy.History, tourn.History)
		}
	}
}

// TestTwoCandidateTournamentMatchesLegacySharded: an epoch's outcome
// depends only on its vote totals, not on the order the votes arrive.
// The tournament receives each epoch's stream regrouped into contiguous
// set ranges (all of range 0's votes, then range 1's, ...) while the
// legacy controller sees it in arrival order; per-set thresholds and
// the winner history must still match.
func TestTwoCandidateTournamentMatchesLegacySharded(t *testing.T) {
	const sets = 128
	type vote struct{ set, bytes int } // bytes < 0 marks a hit
	for _, ranges := range []int{1, 2, 3, 8} {
		legacy := NewWithCandidates(sets, []int{44, 58}, 4, 5)
		tourn := NewTournament(sets, []Candidate{
			{Name: "CA_RWR@44", CPth: 44, Payload: 0},
			{Name: "CA_RWR@58", CPth: 58, Payload: 1},
		}, 0, 4, 5)
		rangeOf := func(set int) int { return set * ranges / sets }

		rng := lcg(9)
		for epoch := 0; epoch < 12; epoch++ {
			byRange := make([][]vote, ranges)
			for i := 0; i < 4000; i++ {
				set := int(rng.next() % sets)
				v := vote{set: set, bytes: -1}
				if rng.next()%3 != 0 {
					v.bytes = int(rng.next() % 80)
				}
				if v.bytes < 0 {
					legacy.RecordHit(set)
				} else {
					legacy.RecordNVMBytes(set, v.bytes)
				}
				byRange[rangeOf(set)] = append(byRange[rangeOf(set)], v)
			}
			for _, vs := range byRange {
				for _, v := range vs {
					if v.bytes < 0 {
						tourn.RecordHit(v.set)
					} else {
						tourn.RecordNVMBytes(v.set, v.bytes)
					}
				}
			}
			legacy.EndEpoch()
			tourn.EndEpoch()
			for s := 0; s < sets; s++ {
				if got, want := tourn.CPthFor(s), legacy.CPthFor(s); got != want {
					t.Fatalf("ranges=%d epoch %d set %d: CPth %d, want %d", ranges, epoch, s, got, want)
				}
			}
		}
		if !reflect.DeepEqual(tourn.History, legacy.History) {
			t.Fatalf("ranges=%d: history diverged:\nlegacy %v\ntourn  %v", ranges, legacy.History, tourn.History)
		}
	}
}
