package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestGeometry(t *testing.T) {
	c := New(16, 4)
	if c.Sets() != 16 || c.Ways() != 4 {
		t.Fatal("geometry wrong")
	}
	c2 := NewBySize(128*1024, 16)
	if c2.Sets() != 128 {
		t.Fatalf("128KB/16w should have 128 sets, got %d", c2.Sets())
	}
}

func TestNewBySizeTiny(t *testing.T) {
	c := NewBySize(64, 16) // smaller than one set
	if c.Sets() != 1 {
		t.Fatalf("tiny cache should clamp to 1 set, got %d", c.Sets())
	}
}

func TestPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0,1) did not panic")
		}
	}()
	New(0, 1)
}

func TestMissThenHit(t *testing.T) {
	c := New(4, 2)
	if l := c.Access(100, false); l != nil {
		t.Fatal("empty cache should miss")
	}
	c.Insert(100, false, 0)
	if l := c.Access(100, false); l == nil {
		t.Fatal("inserted block should hit")
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestWriteMarksDirty(t *testing.T) {
	c := New(4, 2)
	c.Insert(8, false, 0)
	c.Access(8, true)
	w, ok := c.Lookup(8)
	if !ok || !c.Line(c.SetOf(8), w).Dirty {
		t.Fatal("write hit should mark dirty")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1, 2)
	c.Insert(0, false, 0)
	c.Insert(1, false, 0)
	c.Access(0, false) // 0 becomes MRU; 1 is LRU
	ev := c.Insert(2, true, 0)
	if !ev.Valid || ev.Block != 1 {
		t.Fatalf("evicted %+v, want block 1", ev)
	}
	if _, ok := c.Lookup(0); !ok {
		t.Fatal("MRU block 0 should survive")
	}
}

func TestDirtyEvictionStats(t *testing.T) {
	c := New(1, 1)
	c.Insert(0, true, 0)
	ev := c.Insert(1, false, 0)
	if !ev.Dirty {
		t.Fatal("evicted line should be dirty")
	}
	if c.Evictions != 1 || c.DirtyEvictions != 1 {
		t.Fatalf("eviction stats %d/%d", c.Evictions, c.DirtyEvictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(2, 2)
	c.Insert(4, true, 7)
	old, ok := c.Invalidate(4)
	if !ok || !old.Dirty || old.Flags != 7 {
		t.Fatalf("invalidate returned %+v", old)
	}
	if _, ok := c.Lookup(4); ok {
		t.Fatal("block still present after invalidate")
	}
	if _, ok := c.Invalidate(4); ok {
		t.Fatal("double invalidate should fail")
	}
}

func TestSetMapping(t *testing.T) {
	c := New(8, 2)
	// Blocks in different sets never evict each other.
	for b := uint64(0); b < 8; b++ {
		c.Insert(b, false, 0)
	}
	for b := uint64(0); b < 8; b++ {
		if _, ok := c.Lookup(b); !ok {
			t.Fatalf("block %d missing despite distinct sets", b)
		}
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(1, 4)
	for b := uint64(0); b < 4; b++ {
		c.Insert(b, false, 0)
	}
	c.Access(1, false)
	order := c.LRUOrder(0)
	if len(order) != 4 {
		t.Fatalf("order has %d entries", len(order))
	}
	if c.Line(0, order[0]).Block != 1 {
		t.Fatalf("MRU should be block 1, got %d", c.Line(0, order[0]).Block)
	}
	if c.Line(0, order[3]).Block != 0 {
		t.Fatalf("LRU should be block 0, got %d", c.Line(0, order[3]).Block)
	}
}

func TestOccupancy(t *testing.T) {
	c := New(1, 4)
	if c.Occupancy(0) != 0 {
		t.Fatal("fresh cache should be empty")
	}
	c.Insert(0, false, 0)
	c.Insert(1, false, 0)
	if c.Occupancy(0) != 2 {
		t.Fatalf("occupancy = %d", c.Occupancy(0))
	}
}

func TestHitRateAndReset(t *testing.T) {
	c := New(2, 1)
	if c.HitRate() != 0 {
		t.Fatal("no-access hit rate should be 0")
	}
	c.Insert(0, false, 0)
	c.Access(0, false)
	c.Access(1, false)
	if c.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v", c.HitRate())
	}
	c.ResetStats()
	if c.Hits != 0 || c.Misses != 0 || c.HitRate() != 0 {
		t.Fatal("stats not reset")
	}
}

func TestVictimPrefersInvalid(t *testing.T) {
	c := New(1, 3)
	c.Insert(0, false, 0)
	c.Insert(1, false, 0)
	if w := c.VictimWay(0); c.Line(0, w).Valid {
		t.Fatal("victim should be the remaining invalid way")
	}
}

// Property: the cache never holds two copies of a block, and occupancy
// never exceeds associativity.
func TestCacheInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		c := New(4, 3)
		for _, op := range ops {
			block := uint64(op % 64)
			switch (op >> 8) % 3 {
			case 0:
				c.Access(block, op&1 == 1)
			case 1:
				if c.Access(block, false) == nil {
					c.Insert(block, op&1 == 1, 0)
				}
			case 2:
				c.Invalidate(block)
			}
		}
		for set := 0; set < 4; set++ {
			if c.Occupancy(set) > 3 {
				return false
			}
			seen := map[uint64]bool{}
			for w := 0; w < 3; w++ {
				l := c.Line(set, w)
				if !l.Valid {
					continue
				}
				if seen[l.Block] || c.SetOf(l.Block) != set {
					return false
				}
				seen[l.Block] = true
			}
		}
		return c.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSetOfNonPowerOfTwo checks set indexing against the plain modulo on
// a geometry whose set count is not a power of two (the mask fast path
// must not apply) and on one whose count is.
func TestSetOfNonPowerOfTwo(t *testing.T) {
	r := stats.NewRNG(8)
	for _, sets := range []int{96, 128, 1} {
		c := New(sets, 16)
		for i := 0; i < 5000; i++ {
			b := r.Uint64()
			if got, want := c.SetOf(b), int(b%uint64(sets)); got != want {
				t.Fatalf("sets %d: SetOf(%#x) = %d, want %d", sets, b, got, want)
			}
		}
	}
	// Fill a 96-set cache past capacity: lookups and victims must stay
	// within each block's own set.
	c := New(96, 2)
	for b := uint64(0); b < 96*5; b++ {
		c.Insert(b, b%3 == 0, 0)
	}
	for b := uint64(96 * 3); b < 96*5; b++ {
		if _, ok := c.Lookup(b); !ok {
			t.Fatalf("block %d evicted by a block of another set", b)
		}
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFindReturnsTheLine pins Find against Lookup + Line and checks that
// it leaves LRU order and statistics alone.
func TestFindReturnsTheLine(t *testing.T) {
	c := New(4, 2)
	c.Insert(8, false, 3)
	c.Insert(4, false, 0)
	if c.Find(12) != nil {
		t.Fatal("Find of an absent block returned a line")
	}
	l := c.Find(8)
	w, ok := c.Lookup(8)
	if l == nil || !ok || l != c.Line(c.SetOf(8), w) || l.Flags != 3 {
		t.Fatalf("Find(8) = %+v, Lookup way %d ok %v", l, w, ok)
	}
	c.Insert(0, false, 0) // block 8 is still LRU: Find did not touch it
	if c.Find(8) != nil {
		t.Fatal("Find updated LRU order")
	}
	if c.Hits != 0 || c.Misses != 0 {
		t.Fatalf("Find counted statistics: %d hits %d misses", c.Hits, c.Misses)
	}
}

func BenchmarkAccessHit(b *testing.B) {
	c := New(1024, 16)
	for i := uint64(0); i < 1024; i++ {
		c.Insert(i, false, 0)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i)%1024, false)
	}
}

func BenchmarkInsertEvict(b *testing.B) {
	c := New(1024, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Insert(uint64(i), false, 0)
	}
}

// BenchmarkInsertEvictRandom inserts seeded random blocks. Sequential
// blocks fill each set's ways in a fixed cycle, which the host's branch
// predictor learns; random ones leave the LRU way unpredictable, as in a
// simulation.
func BenchmarkInsertEvictRandom(b *testing.B) {
	c := New(1024, 16)
	r := stats.NewRNG(1)
	blocks := make([]uint64, 1<<16)
	for i := range blocks {
		blocks[i] = r.Uint64n(1 << 24)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(blocks[i&(len(blocks)-1)], false, 0)
	}
}
