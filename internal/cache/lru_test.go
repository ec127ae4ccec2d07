package cache

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// refLRUWay is the branchy scan the keyed min replaced: the first way
// with the smallest stamp.
func refLRUWay(stamps []uint64) int {
	lru, lruTick := 0, ^uint64(0)
	for w, t := range stamps {
		if t < lruTick {
			lru, lruTick = w, t
		}
	}
	return lru
}

// refFitLRUWay is the branchy fit-constrained scan the keyed min
// replaced: the first invalid way cb fits, else the LRU way it fits,
// else -1.
func refFitLRUWay(stamps []uint64, caps []uint8, cb int) int {
	victim, victimTick := -1, ^uint64(0)
	for w, t := range stamps {
		if cb > int(caps[w]) {
			continue
		}
		if t == 0 {
			return w
		}
		if t < victimTick {
			victim, victimTick = w, t
		}
	}
	return victim
}

// randomStamps fills a row with stamps below 2^54, about a quarter of
// them 0 (invalid ways). Every third row draws from a narrow range so
// equal stamps occur and the tie-break towards the lower way is tested.
func randomStamps(r *stats.RNG, row []uint64, trial int) {
	span := uint64(1) << 54
	if trial%3 == 0 {
		span = 8
	}
	for w := range row {
		row[w] = 0
		if r.Intn(4) != 0 {
			row[w] = 1 + r.Uint64n(span-1)
		}
	}
}

// randomCaps fills a capacity row with values in [0, 64].
func randomCaps(r *stats.RNG, caps []uint8) {
	for w := range caps {
		caps[w] = uint8(r.Intn(65))
	}
}

var diffWays = []int{1, 4, 16, 128, MaxWays}

// TestLRUKeyMatchesReference compares the keyed scans with the branchy
// loops on seeded random rows: plain rows, capacity rows with unfit ways,
// all-unfit rows (which must give -1), and rows split in two and chained
// through m with a way offset, as the hybrid LLC scans its SRAM and NVM
// parts.
func TestLRUKeyMatchesReference(t *testing.T) {
	r := stats.NewRNG(21)
	for _, ways := range diffWays {
		stamps := make([]uint64, ways)
		caps := make([]uint8, ways)
		for trial := 0; trial < 2000; trial++ {
			randomStamps(r, stamps, trial)
			randomCaps(r, caps)
			if got, want := KeyWay(LRUKey(NoWay, stamps, 0)), refLRUWay(stamps); got != want {
				t.Fatalf("%d ways: LRUKey way %d, reference %d (stamps %v)", ways, got, want, stamps)
			}
			cb := 1 + r.Intn(64)
			if got, want := KeyWay(FitLRUKey(NoWay, stamps, 0, caps, cb)), refFitLRUWay(stamps, caps, cb); got != want {
				t.Fatalf("%d ways, cb %d: FitLRUKey way %d, reference %d (stamps %v caps %v)",
					ways, cb, got, want, stamps, caps)
			}
			// All unfit: every capacity below cb.
			for w := range caps {
				caps[w] = uint8(r.Intn(cb))
			}
			if got := KeyWay(FitLRUKey(NoWay, stamps, 0, caps, cb)); got != -1 {
				t.Fatalf("%d ways, cb %d: all-unfit row gave way %d, want -1 (caps %v)", ways, cb, got, caps)
			}
			// A row split at s: ways [0, s) always fit, [s, ways) are
			// capacity-checked with way offset s.
			randomCaps(r, caps)
			s := r.Intn(ways + 1)
			full := append([]uint8(nil), caps...)
			for w := 0; w < s; w++ {
				full[w] = 64
			}
			m := FitLRUKey(LRUKey(NoWay, stamps[:s], 0), stamps[s:], s, caps[s:], cb)
			if got, want := KeyWay(m), refFitLRUWay(stamps, full, cb); got != want {
				t.Fatalf("%d ways split at %d, cb %d: chained way %d, reference %d", ways, s, cb, got, want)
			}
		}
	}
}

// TestVictimWayMatchesReference drives VictimWay on random stamp rows
// written straight into the dense array.
func TestVictimWayMatchesReference(t *testing.T) {
	r := stats.NewRNG(22)
	for _, ways := range diffWays {
		c := New(2, ways)
		row := c.last[ways : 2*ways]
		for trial := 0; trial < 1000; trial++ {
			randomStamps(r, row, trial)
			if got, want := c.VictimWay(1), refLRUWay(row); got != want {
				t.Fatalf("%d ways: VictimWay %d, reference %d (stamps %v)", ways, got, want, row)
			}
		}
	}
}

// TestNewPanicsAboveMaxWays checks the keyed scans' precondition: the way
// must fit the key's low 8 bits.
func TestNewPanicsAboveMaxWays(t *testing.T) {
	New(1, MaxWays) // the largest supported geometry builds
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "exceeds MaxWays") {
			t.Fatalf("New(1, %d) panic %q, want one naming MaxWays", MaxWays+1, msg)
		}
	}()
	New(1, MaxWays+1)
}
