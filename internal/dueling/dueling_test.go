package dueling

import (
	"testing"
	"testing/quick"

	"repro/internal/metrics"
)

func TestGroupAssignment(t *testing.T) {
	c := New(1024, 0, 0)
	nc := len(c.Candidates())
	// Each candidate samples exactly N/32 sets.
	for k := 0; k < nc; k++ {
		if n := c.SamplerSets(k); n != 1024/GroupDivisor {
			t.Errorf("candidate %d samples %d sets, want %d", k, n, 1024/GroupDivisor)
		}
	}
	// Remaining sets are followers.
	followers := 0
	for s := 0; s < 1024; s++ {
		if _, ok := c.IsSampler(s); !ok {
			followers++
		}
	}
	if followers != 1024-nc*1024/GroupDivisor {
		t.Errorf("followers = %d", followers)
	}
}

func TestSamplerUsesOwnCandidate(t *testing.T) {
	c := New(64, 0, 0)
	for s := 0; s < 64; s++ {
		if k, ok := c.IsSampler(s); ok {
			if c.CPthFor(s) != c.Candidates()[k] {
				t.Fatalf("sampler set %d uses %d, want candidate %d", s, c.CPthFor(s), c.Candidates()[k])
			}
		} else if c.CPthFor(s) != c.Winner() {
			t.Fatalf("follower set %d uses %d, want winner %d", s, c.CPthFor(s), c.Winner())
		}
	}
}

func TestWinnerByHits(t *testing.T) {
	c := New(64, 0, 0)
	// Give candidate 2 (CPth 37) the most hits via its sampler sets.
	target := 2
	for s := 0; s < 64; s++ {
		if k, ok := c.IsSampler(s); ok && k == target {
			for i := 0; i < 10; i++ {
				c.RecordHit(s)
			}
		} else if ok {
			c.RecordHit(s)
		}
	}
	c.EndEpoch()
	if c.Winner() != c.Candidates()[target] {
		t.Fatalf("winner = %d, want %d", c.Winner(), c.Candidates()[target])
	}
	if len(c.History) != 1 || c.History[0] != c.Candidates()[target] {
		t.Fatalf("history %v", c.History)
	}
}

func TestFollowerCountersIgnored(t *testing.T) {
	c := New(64, 0, 0)
	for s := 0; s < 64; s++ {
		if _, ok := c.IsSampler(s); !ok {
			c.RecordHit(s)
			c.RecordNVMBytes(s, 100)
		}
	}
	hits, bytes := c.EpochCounters()
	for k := range hits {
		if hits[k] != 0 || bytes[k] != 0 {
			t.Fatal("follower activity leaked into sampler counters")
		}
	}
}

func TestEpochCountersReset(t *testing.T) {
	c := New(64, 0, 0)
	c.RecordHit(0) // set 0 samples candidate 0
	c.RecordNVMBytes(0, 42)
	c.EndEpoch()
	hits, bytes := c.EpochCounters()
	if hits[0] != 0 || bytes[0] != 0 {
		t.Fatal("counters not reset at epoch boundary")
	}
}

// TestThRule verifies Eq. (1): with Th set, the smallest CPth whose hits
// are within Th% of the best and whose writes are at least Tw% lower wins.
func TestThRule(t *testing.T) {
	c := NewWithCandidates(GroupDivisor*4, []int{30, 40, 50, 60}, 4, 5)
	feed := func(k int, hits, bytes int) {
		// find a sampler set of candidate k
		for s := 0; s < GroupDivisor*4; s++ {
			if kk, ok := c.IsSampler(s); ok && kk == k {
				for i := 0; i < hits; i++ {
					c.RecordHit(s)
				}
				c.RecordNVMBytes(s, bytes)
				return
			}
		}
		t.Fatalf("no sampler for %d", k)
	}
	// Best hits at CPth=60 (1000 hits, 1000 bytes). CPth=30: hits 970
	// (within 4%), bytes 500 (>5% lower) -> rule selects 30.
	feed(0, 970, 500)
	feed(1, 980, 990) // bytes not low enough
	feed(2, 950, 100) // hits too low
	feed(3, 1000, 1000)
	c.EndEpoch()
	if c.Winner() != 30 {
		t.Fatalf("rule winner = %d, want 30", c.Winner())
	}
}

func TestThRuleFallsBackToBest(t *testing.T) {
	c := NewWithCandidates(GroupDivisor, []int{30, 60}, 2, 5)
	for s := 0; s < GroupDivisor; s++ {
		if k, ok := c.IsSampler(s); ok {
			if k == 1 {
				for i := 0; i < 100; i++ {
					c.RecordHit(s)
				}
				c.RecordNVMBytes(s, 100)
			} else {
				for i := 0; i < 50; i++ { // far below the 2% margin
					c.RecordHit(s)
				}
				c.RecordNVMBytes(s, 10)
			}
		}
	}
	c.EndEpoch()
	if c.Winner() != 60 {
		t.Fatalf("no candidate satisfies the rule; winner = %d, want 60", c.Winner())
	}
}

func TestZeroThIsPlainCPSD(t *testing.T) {
	c := NewWithCandidates(GroupDivisor, []int{30, 60}, 0, 5)
	for s := 0; s < GroupDivisor; s++ {
		if k, ok := c.IsSampler(s); ok && k == 1 {
			c.RecordHit(s)
			c.RecordNVMBytes(s, 1000000)
		}
	}
	c.EndEpoch()
	if c.Winner() != 60 {
		t.Fatal("Th=0 must pick by hits only")
	}
}

func TestPerEpochRecording(t *testing.T) {
	c := New(64, 0, 0)
	c.RecordPerEpoch = true
	c.RecordHit(0)
	c.EndEpoch()
	c.EndEpoch()
	if len(c.EpochHits) != 2 || len(c.EpochBytes) != 2 {
		t.Fatalf("recorded %d/%d epochs", len(c.EpochHits), len(c.EpochBytes))
	}
	if c.EpochHits[0][0] != 1 || c.EpochHits[1][0] != 0 {
		t.Fatal("per-epoch snapshots wrong")
	}
}

func TestInitialWinnerPermissive(t *testing.T) {
	c := New(64, 0, 0)
	if c.Winner() != 64 {
		t.Fatalf("initial winner = %d, want the most permissive 64", c.Winner())
	}
}

func TestPanicsOnBadCandidates(t *testing.T) {
	for _, cand := range [][]int{nil, {30, 30}, {40, 30}, make([]int, 33)} {
		func() {
			defer func() { recover() }()
			NewWithCandidates(64, cand, 0, 0)
			t.Errorf("candidates %v did not panic", cand)
		}()
	}
}

// A valid ascending list with one more candidate than there are set
// classes leaves a candidate without sampler sets, so it must be refused.
func TestTournamentPanicsOnBadArity(t *testing.T) {
	cand := make([]int, GroupDivisor+1)
	for i := range cand {
		cand[i] = i + 1
	}
	defer func() {
		if recover() == nil {
			t.Fatal("accepted more candidates than set classes")
		}
	}()
	NewWithCandidates(64, cand, 0, 0)
}

// Property: winner is always one of the candidates, whatever the counter
// pattern.
func TestWinnerAlwaysCandidate(t *testing.T) {
	f := func(hitPattern []uint8, th, tw uint8) bool {
		c := New(128, float64(th%10), float64(tw%10))
		for i, h := range hitPattern {
			set := i % 128
			for j := uint8(0); j < h%16; j++ {
				c.RecordHit(set)
			}
			c.RecordNVMBytes(set, int(h))
		}
		c.EndEpoch()
		for _, cand := range c.Candidates() {
			if c.Winner() == cand {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRecordHit(b *testing.B) {
	c := New(1024, 0, 0)
	for i := 0; i < b.N; i++ {
		c.RecordHit(i % 1024)
	}
}

func TestRegisterMetrics(t *testing.T) {
	c := New(256, 4, 5)
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)

	// Feed one sampler set some traffic, then close the epoch.
	var sampler int
	for s := 0; s < 256; s++ {
		if _, ok := c.IsSampler(s); ok {
			sampler = s
			break
		}
	}
	c.RecordHit(sampler)
	c.RecordNVMBytes(sampler, 48)
	s1 := reg.Snapshot()
	if s1.Gauge("dueling.epoch_hits") != 1 || s1.Gauge("dueling.epoch_bytes") != 48 {
		t.Errorf("open-epoch gauges: hits %v bytes %v",
			s1.Gauge("dueling.epoch_hits"), s1.Gauge("dueling.epoch_bytes"))
	}
	if s1.Counter("dueling.epochs") != 0 {
		t.Errorf("epochs = %d before any boundary", s1.Counter("dueling.epochs"))
	}
	c.EndEpoch()
	s2 := reg.Snapshot()
	if s2.Counter("dueling.epochs") != 1 {
		t.Errorf("epochs = %d after one boundary", s2.Counter("dueling.epochs"))
	}
	if s2.Gauge("dueling.epoch_hits") != 0 {
		t.Error("open-epoch counters not reset at the boundary")
	}
	if int(s2.Gauge("dueling.cpth")) != c.Winner() {
		t.Errorf("dueling.cpth gauge %v, winner %d", s2.Gauge("dueling.cpth"), c.Winner())
	}
}
