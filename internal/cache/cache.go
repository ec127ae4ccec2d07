// Package cache provides generic set-associative cache structures with LRU
// replacement. The private L1 and L2 levels of the simulated hierarchy are
// instances of Cache; the hybrid LLC builds its own structure on top of the
// same LRU bookkeeping because its ways are heterogeneous.
package cache

import "fmt"

// Line is one cache line's bookkeeping state. Data contents are not stored
// at the private levels; the hierarchy keeps authoritative block contents
// in its memory model. Holders of a *Line may change Dirty and Flags; the
// cache owns Valid and Block.
type Line struct {
	Valid bool
	Dirty bool
	// Flags carries policy metadata that must travel with the block, e.g.
	// the LHybrid loop-block tag or the TAP hit counter.
	Flags uint8
	Block uint64 // block address (byte address >> 6)
}

// Cache is a set-associative, write-back cache with true LRU replacement.
//
// The two per-way fields every access scans live in dense arrays beside
// the lines: blocks (the tag compare of Lookup/Access) and last (the LRU
// scan of VictimWay), so a 16-way set's scan reads two host cache lines.
// Only Insert, Access, Touch and Invalidate write them.
type Cache struct {
	sets, ways int
	setMask    uint64   // sets-1 when sets is a power of two, else 0
	lines      []Line   // sets*ways, set-major
	blocks     []uint64 // blocks[i] == lines[i].Block
	last       []uint64 // LRU timestamp of lines[i]; 0 exactly when invalid
	tick       uint64

	// Statistics.
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// New returns a cache with the given geometry. sizeBytes = sets*ways*64.
func New(sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %dx%d", sets, ways))
	}
	if ways > MaxWays {
		panic(fmt.Sprintf("cache: %d ways exceeds MaxWays (%d): the LRU scan keeps the way in 8 bits", ways, MaxWays))
	}
	n := sets * ways
	return &Cache{
		sets: sets, ways: ways, setMask: SetMask(sets),
		lines: make([]Line, n), blocks: make([]uint64, n), last: make([]uint64, n),
	}
}

// SetMask returns sets-1 when sets is a power of two above one, else 0:
// the mask that replaces the modulo in set indexing (see SetIndex).
func SetMask(sets int) uint64 {
	if sets > 1 && sets&(sets-1) == 0 {
		return uint64(sets - 1)
	}
	return 0
}

// SetIndex returns block mod sets, using mask (from SetMask(sets)) in
// place of the 64-bit division when sets is a power of two.
func SetIndex(block uint64, sets int, mask uint64) int {
	if mask != 0 {
		return int(block & mask)
	}
	return int(block % uint64(sets))
}

// NewBySize returns a cache of sizeBytes bytes with the given
// associativity and 64-byte lines.
func NewBySize(sizeBytes, ways int) *Cache {
	sets := sizeBytes / (ways * 64)
	if sets == 0 {
		sets = 1
	}
	return New(sets, ways)
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// SetOf returns the set index for a block address.
func (c *Cache) SetOf(block uint64) int { return SetIndex(block, c.sets, c.setMask) }

// line returns the line at (set, way).
func (c *Cache) line(set, way int) *Line { return &c.lines[set*c.ways+way] }

// Line exposes the line at (set, way) for policy inspection.
func (c *Cache) Line(set, way int) *Line { return c.line(set, way) }

// find returns the flat index of block's line, or -1 when absent.
func (c *Cache) find(block uint64) int {
	base := c.SetOf(block) * c.ways
	for i, b := range c.blocks[base : base+c.ways] {
		if b == block && c.lines[base+i].Valid {
			return base + i
		}
	}
	return -1
}

// Lookup finds block and returns its way. It does not update LRU state or
// statistics; use Access for the common path.
func (c *Cache) Lookup(block uint64) (way int, ok bool) {
	if i := c.find(block); i >= 0 {
		return i % c.ways, true
	}
	return -1, false
}

// Find returns block's line, or nil when absent. Like Lookup it updates
// neither LRU state nor statistics.
func (c *Cache) Find(block uint64) *Line {
	if i := c.find(block); i >= 0 {
		return &c.lines[i]
	}
	return nil
}

// Touch marks (set, way) as most recently used.
func (c *Cache) Touch(set, way int) {
	c.tick++
	c.last[set*c.ways+way] = c.tick
}

// Access looks up block, updating hit/miss statistics and LRU order on a
// hit. isWrite marks the line dirty on hit. It returns the hit line (nil on
// miss).
func (c *Cache) Access(block uint64, isWrite bool) *Line {
	i := c.find(block)
	if i < 0 {
		c.Misses++
		return nil
	}
	c.Hits++
	c.tick++
	c.last[i] = c.tick
	l := &c.lines[i]
	if isWrite {
		l.Dirty = true
	}
	return l
}

// VictimWay returns the way to replace in set: an invalid way if one
// exists, otherwise the LRU way. Invalid ways carry timestamp 0, so both
// cases are the first way with the smallest timestamp, which the
// branch-free keyed scan (LRUKey) finds.
func (c *Cache) VictimWay(set int) int {
	base := set * c.ways
	return KeyWay(LRUKey(NoWay, c.last[base:base+c.ways], 0))
}

// Insert fills block into its set, evicting the LRU line if needed.
// It returns the evicted line's previous contents (evicted.Valid reports
// whether a real eviction happened). The new line starts clean with the
// given flags and is made MRU.
func (c *Cache) Insert(block uint64, dirty bool, flags uint8) (evicted Line) {
	set := c.SetOf(block)
	w := c.VictimWay(set)
	i := set*c.ways + w
	l := &c.lines[i]
	evicted = *l
	if evicted.Valid {
		c.Evictions++
		if evicted.Dirty {
			c.DirtyEvictions++
		}
	}
	*l = Line{Valid: true, Dirty: dirty, Flags: flags, Block: block}
	c.blocks[i] = block
	c.Touch(set, w)
	return evicted
}

// Invalidate removes block from the cache, returning its prior state.
func (c *Cache) Invalidate(block uint64) (old Line, ok bool) {
	i := c.find(block)
	if i < 0 {
		return Line{}, false
	}
	l := &c.lines[i]
	old = *l
	l.Valid = false
	l.Dirty = false
	l.Flags = 0
	c.last[i] = 0
	return old, true
}

// LRUOrder returns the ways of set ordered from MRU to LRU, considering
// only valid lines. Policies that migrate "the most recent X" use this.
func (c *Cache) LRUOrder(set int) []int {
	ways := make([]int, 0, c.ways)
	for w := 0; w < c.ways; w++ {
		if c.line(set, w).Valid {
			ways = append(ways, w)
		}
	}
	// Insertion sort by descending timestamp; associativity is small.
	last := c.last[set*c.ways:]
	for i := 1; i < len(ways); i++ {
		for j := i; j > 0 && last[ways[j]] > last[ways[j-1]]; j-- {
			ways[j], ways[j-1] = ways[j-1], ways[j]
		}
	}
	return ways
}

// Occupancy returns the number of valid lines in set.
func (c *Cache) Occupancy(set int) int {
	n := 0
	for w := 0; w < c.ways; w++ {
		if c.line(set, w).Valid {
			n++
		}
	}
	return n
}

// HitRate returns hits/(hits+misses), 0 when no accesses happened.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Hits) / float64(total)
}

// ResetStats clears the statistics counters without touching contents.
func (c *Cache) ResetStats() {
	c.Hits, c.Misses, c.Evictions, c.DirtyEvictions = 0, 0, 0, 0
}

// CheckInvariants verifies the dense per-way arrays against the lines:
// every line's blocks entry equals its Block, and its timestamp is zero
// exactly when the line is invalid. It returns the first violation.
func (c *Cache) CheckInvariants() error {
	for i := range c.lines {
		l := &c.lines[i]
		set, way := i/c.ways, i%c.ways
		if l.Valid && c.blocks[i] != l.Block {
			return fmt.Errorf("cache: set %d way %d mirrors block %#x, holds %#x", set, way, c.blocks[i], l.Block)
		}
		if l.Valid != (c.last[i] != 0) {
			return fmt.Errorf("cache: set %d way %d valid=%v with timestamp %d", set, way, l.Valid, c.last[i])
		}
	}
	return nil
}
