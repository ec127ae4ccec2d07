package dueling

import (
	"reflect"
	"testing"
)

// selectionCPths are the four candidates the selection table duels.
var selectionCPths = []int{30, 40, 50, 60}

// cast records per-candidate votes on each candidate's first sampler set
// (set k samples candidate k).
func cast(c *Controller, hits, bytes []uint64) {
	for k := range hits {
		for i := uint64(0); i < hits[k]; i++ {
			c.RecordHit(k)
		}
		c.RecordNVMBytes(k, int(bytes[k]))
	}
}

// splitVotes deals each candidate's vote total round-robin into n parts.
func splitVotes(total []uint64, n int) [][]uint64 {
	parts := make([][]uint64, n)
	for i := range parts {
		parts[i] = make([]uint64, len(total))
	}
	for c, t := range total {
		for i := uint64(0); i < t; i++ {
			parts[i%uint64(n)][c]++
		}
	}
	return parts
}

// selectionCases exercise max-hits, its tie-break and the Th/Tw rule on
// one epoch of votes for selectionCPths.
var selectionCases = []struct {
	name    string
	th, tw  float64
	hits    []uint64
	bytes   []uint64
	wantIdx int // expected winning candidate index after EndEpoch
}{
	{
		name: "plain max hits",
		hits: []uint64{5, 17, 9, 3}, bytes: []uint64{100, 100, 100, 100},
		wantIdx: 1,
	},
	{
		name: "tie breaks to lowest index",
		hits: []uint64{7, 12, 12, 4}, bytes: []uint64{0, 0, 0, 0},
		wantIdx: 1,
	},
	{
		name: "all zero votes keep candidate 0",
		hits: []uint64{0, 0, 0, 0}, bytes: []uint64{0, 0, 0, 0},
		wantIdx: 0,
	},
	{
		name: "Th rule trades hits for byte reduction",
		th:   10, tw: 20,
		// Best hits: index 2. Index 0 keeps >90% of its hits and cuts
		// bytes by >20% -> lowest qualifying index wins.
		hits: []uint64{95, 80, 100, 60}, bytes: []uint64{500, 900, 1000, 400},
		wantIdx: 0,
	},
	{
		name: "Th rule falls back to plain winner",
		th:   4, tw: 5,
		hits: []uint64{50, 60, 100, 70}, bytes: []uint64{990, 980, 1000, 995},
		wantIdx: 2,
	},
}

func TestSelectionRule(t *testing.T) {
	for _, tc := range selectionCases {
		c := NewWithCandidates(96, selectionCPths, tc.th, tc.tw)
		cast(c, tc.hits, tc.bytes)
		c.EndEpoch()
		want := selectionCPths[tc.wantIdx]
		if got := c.WinnerIndex(); got != tc.wantIdx {
			t.Errorf("%s: winner index %d, want %d", tc.name, got, tc.wantIdx)
		}
		if !reflect.DeepEqual(c.History, []int{want}) {
			t.Errorf("%s: history %v, want [%d]", tc.name, c.History, want)
		}
		// Set 95 is a follower (95 % 32 = 31 > #cands): it adopts the winner.
		if got := c.CPthFor(95); got != want {
			t.Errorf("%s: follower CPth %d, want %d", tc.name, got, want)
		}
		if h, b := c.OpenVoteTotals(); h != 0 || b != 0 {
			t.Errorf("%s: epoch left open votes (%d hits, %d bytes)", tc.name, h, b)
		}
	}
}

// TestSelectionMergesSamplerSets: a candidate samples on every
// GroupDivisor-th set and its votes merge across all of them. The
// selection table cast over 1, 2 or 3 of each candidate's sampler sets,
// visited in ascending set ranges, must select exactly as the cast on
// one sampler set does.
func TestSelectionMergesSamplerSets(t *testing.T) {
	for _, tc := range selectionCases {
		seq := NewWithCandidates(96, selectionCPths, tc.th, tc.tw)
		cast(seq, tc.hits, tc.bytes)
		seq.EndEpoch()
		for _, parts := range []int{1, 2, 3} {
			c := NewWithCandidates(96, selectionCPths, tc.th, tc.tw)
			hParts := splitVotes(tc.hits, parts)
			bParts := splitVotes(tc.bytes, parts)
			for p := 0; p < parts; p++ {
				for k := range tc.hits {
					set := p*GroupDivisor + k
					if idx, ok := c.IsSampler(set); !ok || idx != k {
						t.Fatalf("set %d: sampler (%d,%v), want (%d,true)", set, idx, ok, k)
					}
					for i := uint64(0); i < hParts[p][k]; i++ {
						c.RecordHit(set)
					}
					c.RecordNVMBytes(set, int(bParts[p][k]))
				}
			}
			var wantH, wantB uint64
			for k := range tc.hits {
				wantH += tc.hits[k]
				wantB += tc.bytes[k]
			}
			if h, b := c.OpenVoteTotals(); h != wantH || b != wantB {
				t.Errorf("%s/%d ranges: open votes (%d hits, %d bytes), want (%d, %d)", tc.name, parts, h, b, wantH, wantB)
			}
			c.EndEpoch()
			if got := c.WinnerIndex(); got != tc.wantIdx {
				t.Errorf("%s/%d ranges: winner index %d, want %d", tc.name, parts, got, tc.wantIdx)
			}
			if !reflect.DeepEqual(c.History, seq.History) {
				t.Errorf("%s/%d ranges: history %v != single-set %v", tc.name, parts, c.History, seq.History)
			}
			if got, want := c.CPthFor(95), seq.CPthFor(95); got != want {
				t.Errorf("%s/%d ranges: follower CPth %d, want %d", tc.name, parts, got, want)
			}
			if h, b := c.OpenVoteTotals(); h != 0 || b != 0 {
				t.Errorf("%s/%d ranges: epoch left open votes (%d hits, %d bytes)", tc.name, parts, h, b)
			}
		}
	}
}
