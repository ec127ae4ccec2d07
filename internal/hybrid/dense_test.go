package hybrid

import (
	"testing"

	"repro/internal/coloring"
	"repro/internal/stats"
)

// Tests for the dense per-way state beside the entries (the blocks and
// last arrays, the NVM capacity rows) and for set indexing on geometries
// with and without a power-of-two set count.

// churn drives a deterministic mix of requests and inserts, dirty and
// clean, compressible and not, over blocks that overflow the cache.
func churn(l *LLC, r *stats.RNG, n int) {
	content := [][]byte{compressibleBlock(), incompressibleBlock()}
	span := uint64(l.Sets() * (l.SRAMWays() + l.NVMWays()) * 3)
	for i := 0; i < n; i++ {
		b := r.Uint64n(span)
		switch r.Intn(4) {
		case 0:
			l.GetS(b)
		case 1:
			l.GetX(b)
		default:
			l.Insert(b, r.Intn(3) == 0, UnpackTag(uint8(r.Intn(64))), content[r.Intn(2)])
		}
	}
}

// movedRows records the rows a coloring scheme reports at each advance.
type movedRows struct {
	*coloring.WearFeedback
	last []int
}

func (m *movedRows) Epoch(rowWear []float64) []int {
	rows := m.WearFeedback.Epoch(rowWear)
	m.last = append(m.last[:0], rows...)
	return rows
}

// TestMirrorInvariantsUnderRemaps keeps CheckInvariants — blocks mirror,
// timestamp-validity agreement and published frame capacities — green
// while the array ages, rotates its rows (RotateNVMSets) and the
// wear coloring remaps rows at epoch boundaries. Every row the scheme
// reports must come out of EndEpoch empty, and the remaps must flush
// resident blocks at least once.
func TestMirrorInvariantsUnderRemaps(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  Policy
		repl Replacement
		sets int
	}{
		{"global", testBH, FitLRU, 16},
		{"steered", testCP, FitLRU, 12},
		{"steered-rrip", testCP, FitRRIP, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wear, err := coloring.NewWearFeedback(tc.sets, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			mapper := &movedRows{WearFeedback: wear}
			l := New(Config{
				Sets: tc.sets, SRAMWays: 2, NVMWays: 4,
				Policy: tc.pol, Thresholds: FixedThreshold(40),
				Endurance: testEndurance, Sampler: stats.NewRNG(5),
				NVMReplacement: tc.repl,
				SetMapper:      mapper, SetMapperAdvance: true,
			})
			resident := func() (n int) {
				for set := 0; set < tc.sets; set++ {
					n += l.Occupancy(set)
				}
				return n
			}
			r := stats.NewRNG(17)
			remaps, flushed := 0, 0
			for phase := 0; phase < 12; phase++ {
				churn(l, r, 400)
				if err := l.CheckInvariants(); err != nil {
					t.Fatalf("phase %d after traffic: %v", phase, err)
				}
				// Age: later frames shrink faster, some die outright.
				for i, f := range l.Array().Frames() {
					f.AddWear(float64(i%7) * 0.06 * testEndurance.Mean)
				}
				l.InvalidateUnfit()
				switch phase % 3 {
				case 0:
					l.RotateNVMSets(1 + phase)
				case 1:
					before := resident()
					l.EndEpoch() // the wear mapper advances and flushes
					for _, row := range mapper.last {
						if n := l.Occupancy(row); n != 0 {
							t.Fatalf("phase %d: remapped row %d kept %d entries", phase, row, n)
						}
					}
					if len(mapper.last) > 0 {
						remaps++
					}
					flushed += before - resident()
				}
				if err := l.CheckInvariants(); err != nil {
					t.Fatalf("phase %d after aging and remap: %v", phase, err)
				}
			}
			if remaps == 0 || flushed == 0 {
				t.Fatalf("coloring remapped %d times and flushed %d entries; want both nonzero", remaps, flushed)
			}
			if l.Stats.NVMInserts == 0 || l.Array().LiveFrames() == len(l.Array().Frames()) {
				t.Fatalf("run never exercised NVM inserts (%d) or frame deaths", l.Stats.NVMInserts)
			}
		})
	}
}

// TestCheckInvariantsCatchesStaleMirrors corrupts each dense array in
// turn and requires CheckInvariants to notice.
func TestCheckInvariantsCatchesStaleMirrors(t *testing.T) {
	build := func() (*LLC, int) {
		l := newLLC(t, testCP, FixedThreshold(37), 4, 2, 2)
		l.Insert(1, false, BlockTag{}, compressibleBlock())
		if err := l.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		set, way, _ := l.find(1)
		return l, l.slot(set, way)
	}
	l, i := build()
	l.blocks[i] = 5
	if err := l.CheckInvariants(); err == nil {
		t.Error("stale blocks mirror not detected")
	}
	l, i = build()
	l.last[i] = 0
	if err := l.CheckInvariants(); err == nil {
		t.Error("valid entry with a zero timestamp not detected")
	}
	l, i = build()
	l.entries[i] = entry{}
	if err := l.CheckInvariants(); err == nil {
		t.Error("invalid entry with a live timestamp not detected")
	}
}

// TestSetOfMatchesModulo checks the mask fast path against the plain
// modulo on power-of-two and other set counts, with and without a
// coloring mapper in front of the rows.
func TestSetOfMatchesModulo(t *testing.T) {
	r := stats.NewRNG(3)
	for _, sets := range []int{1, 3, 768, 1024} {
		for _, mapped := range []bool{false, true} {
			cfg := Config{
				Sets: sets, SRAMWays: 1, NVMWays: 1, Policy: testBH,
				Endurance: testEndurance, Sampler: stats.NewRNG(1),
			}
			var wear *coloring.WearFeedback
			if mapped && sets > 1 {
				var err error
				if wear, err = coloring.NewWearFeedback(sets, 1, 1); err != nil {
					t.Fatal(err)
				}
				// Row sets-1 is the only worn row: it swaps with row 0,
				// so the mapping is not the identity.
				rowWear := make([]float64, sets)
				rowWear[sets-1] = 1
				if moved := wear.Epoch(rowWear); len(moved) != 2 {
					t.Fatalf("sets %d: remap moved rows %v, want two", sets, moved)
				}
				cfg.SetMapper = wear
			}
			l := New(cfg)
			for k := 0; k < 2000; k++ {
				b := r.Uint64()
				want := int(b % uint64(sets))
				if wear != nil {
					want = wear.Map(want)
				}
				if got := l.SetOf(b); got != want {
					t.Fatalf("sets %d mapped %v: SetOf(%#x) = %d, want %d", sets, mapped, b, got, want)
				}
			}
		}
	}
}
