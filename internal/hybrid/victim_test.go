package hybrid

import (
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/stats"
)

// Differential tests for the keyed-min victim scans: each LLC scan
// against the branchy loop it replaced, on seeded random stamp and
// capacity rows written straight into set 0's dense state.

// refGlobalVictim is the old insertGlobal scan: the first invalid way the
// block fits, else the LRU fitting way, else -1; SRAM ways always fit.
func refGlobalVictim(last []uint64, caps []uint8, sramWays, cb int) int {
	victim := -1
	victimTick := ^uint64(0)
	for w, t := range last {
		if w >= sramWays && cb > int(caps[w-sramWays]) {
			continue
		}
		if t == 0 {
			victim = w
			break
		}
		if t < victimTick {
			victim, victimTick = w, t
		}
	}
	return victim
}

// refNVMVictim is the old FitLRU branch of chooseNVMVictim over the NVM
// stamps; it returns a way of the whole set.
func refNVMVictim(last []uint64, caps []uint8, sramWays, cb int) int {
	victim := -1
	victimTick := ^uint64(0)
	for w, t := range last {
		if cb > int(caps[w]) {
			continue
		}
		if t == 0 {
			return sramWays + w
		}
		if t < victimTick {
			victim, victimTick = sramWays+w, t
		}
	}
	return victim
}

// refSRAMVictim is the old insertSRAM choice for a non-LHybrid policy:
// its first-invalid loop, then chooseSRAMVictim's LRU fallback.
func refSRAMVictim(last []uint64) int {
	for w, t := range last {
		if t == 0 {
			return w
		}
	}
	lru, lruTick := 0, ^uint64(0)
	for w, t := range last {
		if t < lruTick {
			lru, lruTick = w, t
		}
	}
	return lru
}

func TestVictimScansMatchReference(t *testing.T) {
	r := stats.NewRNG(23)
	for _, g := range []struct{ sram, nvm int }{
		{1, 0}, {0, 1}, {1, 3}, {4, 12}, {32, 96}, {0, 128},
	} {
		l := newLLC(t, testBH, nil, 2, g.sram, g.nvm)
		last := l.last[:l.nways]
		var caps []uint8
		if g.nvm > 0 {
			// The published capacity row the scans read; the test writes
			// it directly to reach every capacity from 0 to 64.
			caps = l.nvmCaps(0)
		}
		for trial := 0; trial < 2000; trial++ {
			span := uint64(1) << 54
			if trial%3 == 0 {
				span = 8 // equal stamps: ties must go to the lower way
			}
			for w := range last {
				last[w] = 0
				if r.Intn(4) != 0 {
					last[w] = 1 + r.Uint64n(span-1)
				}
			}
			cb := 1 + r.Intn(64)
			allUnfit := trial%5 == 0
			for w := range caps {
				if allUnfit {
					caps[w] = uint8(r.Intn(cb))
				} else {
					caps[w] = uint8(r.Intn(65))
				}
			}
			want := refGlobalVictim(last, caps, g.sram, cb)
			if got := l.globalVictim(0, cb); got != want {
				t.Fatalf("%d+%d ways, cb %d: globalVictim %d, reference %d", g.sram, g.nvm, cb, got, want)
			}
			if allUnfit && g.sram == 0 && want != -1 {
				t.Fatalf("%d+%d ways: all-unfit row gave way %d, want bypass", g.sram, g.nvm, want)
			}
			if g.nvm > 0 {
				want := refNVMVictim(last[g.sram:], caps, g.sram, cb)
				if got := l.chooseNVMVictim(0, cb); got != want {
					t.Fatalf("%d+%d ways, cb %d: chooseNVMVictim %d, reference %d", g.sram, g.nvm, cb, got, want)
				}
				if allUnfit && want != -1 {
					t.Fatalf("%d+%d ways: all-unfit NVM row gave way %d, want -1", g.sram, g.nvm, want)
				}
			}
			if g.sram > 0 {
				if got, want := l.lruSRAMWay(0), refSRAMVictim(last[:g.sram]); got != want {
					t.Fatalf("%d+%d ways: lruSRAMWay %d, reference %d", g.sram, g.nvm, got, want)
				}
			}
		}
	}
}

// TestGlobalInsertBypassesWhenNothingFits checks the all-unfit outcome end
// to end: with no SRAM ways and every NVM frame disabled, a BH insert
// bypasses the LLC.
func TestGlobalInsertBypassesWhenNothingFits(t *testing.T) {
	l := newLLC(t, testBH, nil, 1, 0, 4)
	for w := 0; w < 4; w++ {
		l.arr.Frame(0, w).Disable()
	}
	l.Insert(7, true, BlockTag{}, nil)
	if l.Contains(7) || l.Occupancy(0) != 0 {
		t.Fatal("insert with no fitting frame was not bypassed")
	}
}

func TestNewPanicsAboveMaxWays(t *testing.T) {
	newLLC(t, testBH, nil, 1, 128, 128) // the largest supported geometry builds
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "exceeds 256") {
			t.Fatalf("New with %d ways panic %q, want one naming the 256-way limit", cache.MaxWays+1, msg)
		}
	}()
	newLLC(t, testBH, nil, 1, 129, 128)
}

// BenchmarkLLCInsertBHRandom inserts seeded random blocks into a BH LLC
// (one fit-LRU list across both parts). Random blocks keep the victim way
// unpredictable to the host's branch predictor, as in a simulation.
func BenchmarkLLCInsertBHRandom(b *testing.B) {
	l := newLLC(b, testBH, nil, 1024, 4, 12)
	r := stats.NewRNG(1)
	blocks := make([]uint64, 1<<16)
	for i := range blocks {
		blocks[i] = r.Uint64n(1 << 24)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(blocks[i&(len(blocks)-1)], false, BlockTag{}, nil)
	}
}
