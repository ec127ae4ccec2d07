package dueling

import (
	"reflect"
	"testing"
)

// N-way tournament selection: opaque candidates (several sharing one
// CPth, distinguished only by index/payload) must be ranked under
// max-hits, its tie-break, and the Th/Tw rule exactly like CPth
// candidates.

func policyCands() []Candidate {
	return []Candidate{
		{Name: "CA_RWR", CPth: 58, Payload: 0},
		{Name: "SRRIP", CPth: 58, Payload: 1},
		{Name: "BRRIP", CPth: 58, Payload: 2},
		{Name: "PAR", CPth: 58, Payload: 3},
	}
}

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
// one epoch of policyCands votes.
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

func TestTournamentSelectionRule(t *testing.T) {
	for _, tc := range selectionCases {
		c := NewTournament(96, policyCands(), 0, tc.th, tc.tw)
		cast(c, tc.hits, tc.bytes)
		c.EndEpoch()
		if got := c.WinnerIndex(); got != tc.wantIdx {
			t.Errorf("%s: winner index %d, want %d", tc.name, got, tc.wantIdx)
		}
		if !reflect.DeepEqual(c.IdxHistory, []int{tc.wantIdx}) {
			t.Errorf("%s: idx history %v", tc.name, c.IdxHistory)
		}
		// Follower sets resolve to the winner; set 95 is a follower
		// (95 % 32 = 31 > #cands).
		if got := c.CandidateFor(95); got != tc.wantIdx {
			t.Errorf("%s: follower candidate %d, want %d", tc.name, got, tc.wantIdx)
		}
		if h, b := c.OpenVoteTotals(); h != 0 || b != 0 {
			t.Errorf("%s: epoch left open votes (%d hits, %d bytes)", tc.name, h, b)
		}
	}
}

// TestTournamentMergeMatchesSequential: a candidate samples on every
// GroupDivisor-th set and its votes merge across all of them. The
// selection table cast over 1, 2 or 3 of each candidate's sampler sets,
// visited in ascending set ranges, must select exactly as the cast on
// one sampler set does.
func TestTournamentMergeMatchesSequential(t *testing.T) {
	for _, tc := range selectionCases {
		seq := NewTournament(96, policyCands(), 0, tc.th, tc.tw)
		cast(seq, tc.hits, tc.bytes)
		seq.EndEpoch()
		for _, parts := range []int{1, 2, 3} {
			c := NewTournament(96, policyCands(), 0, tc.th, tc.tw)
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
			if !reflect.DeepEqual(c.IdxHistory, seq.IdxHistory) {
				t.Errorf("%s/%d ranges: idx history %v != single-set %v", tc.name, parts, c.IdxHistory, seq.IdxHistory)
			}
			if got, want := c.CandidateFor(95), seq.CandidateFor(95); got != want {
				t.Errorf("%s/%d ranges: follower candidate %d, want %d", tc.name, parts, got, want)
			}
			if h, b := c.OpenVoteTotals(); h != 0 || b != 0 {
				t.Errorf("%s/%d ranges: epoch left open votes (%d hits, %d bytes)", tc.name, parts, h, b)
			}
		}
	}
}

func TestTournamentSamplerAssignment(t *testing.T) {
	c := NewTournament(96, policyCands(), 0, 0, 0)
	if c.Divisor() != GroupDivisor {
		t.Fatalf("divisor %d, want default %d", c.Divisor(), GroupDivisor)
	}
	for set := 0; set < 96; set++ {
		g := set % GroupDivisor
		idx, sampler := c.IsSampler(set)
		if g < 4 {
			if !sampler || idx != g {
				t.Fatalf("set %d: sampler (%d,%v), want (%d,true)", set, idx, sampler, g)
			}
			if c.CandidateFor(set) != g {
				t.Fatalf("set %d resolves to %d, want pinned candidate %d", set, c.CandidateFor(set), g)
			}
		} else if sampler {
			t.Fatalf("set %d should be a follower", set)
		}
	}
	// Followers track the initial winner (last candidate) and the adopted
	// one after an epoch.
	if c.CandidateFor(95) != 3 {
		t.Fatalf("initial follower candidate %d, want 3 (permissive start)", c.CandidateFor(95))
	}
	cast(c, []uint64{9, 1, 1, 1}, []uint64{0, 0, 0, 0})
	c.EndEpoch()
	if c.CandidateFor(95) != 0 {
		t.Fatalf("follower candidate %d after epoch, want 0", c.CandidateFor(95))
	}
	if c.WinnerCandidate().Name != "CA_RWR" {
		t.Fatalf("winner descriptor %+v", c.WinnerCandidate())
	}
}

func TestTournamentCustomDivisor(t *testing.T) {
	// Divisor 8: each candidate samples on 1/8 of the sets.
	c := NewTournament(64, policyCands(), 8, 0, 0)
	if c.Divisor() != 8 {
		t.Fatalf("divisor %d", c.Divisor())
	}
	for k := 0; k < 4; k++ {
		if n := c.SamplerSets(k); n != 8 {
			t.Fatalf("candidate %d samples %d sets, want 8", k, n)
		}
	}
}

func TestTournamentDuplicateCPthAllowed(t *testing.T) {
	// Policy tournaments legitimately share one CPth across candidates —
	// only the legacy ascending-CPth constructor forbids duplicates.
	c := NewTournament(64, []Candidate{{Name: "A", CPth: 58}, {Name: "B", CPth: 58}}, 0, 0, 0)
	if c.CPthFor(0) != 58 || c.CPthFor(1) != 58 {
		t.Fatal("shared CPth not honoured")
	}
}

func TestTournamentPanicsOnBadArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("accepted more candidates than divisor classes")
		}
	}()
	NewTournament(64, policyCands(), 2, 0, 0)
}

func TestLegacyConstructorsAreTournaments(t *testing.T) {
	// New == NewWithCandidates(DefaultCandidates) == the 10-way tournament.
	c := New(128, 0, 0)
	list := c.CandidateList()
	if len(list) != len(DefaultCandidates) {
		t.Fatalf("%d candidates, want %d", len(list), len(DefaultCandidates))
	}
	for i, cd := range list {
		if cd.CPth != DefaultCandidates[i] || cd.Payload != i {
			t.Fatalf("candidate %d = %+v", i, cd)
		}
	}
	if got := c.Winner(); got != 64 {
		t.Fatalf("initial winner %d, want permissive 64", got)
	}
}
