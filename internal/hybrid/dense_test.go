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

// TestMirrorInvariantsUnderRemaps keeps CheckInvariants — blocks mirror,
// timestamp-validity agreement and published frame capacities — green
// while the array ages, rotates its rows (RotateNVMSets) and the
// coloring mapper remaps and flushes rows at epoch boundaries.
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
			rot, err := coloring.NewRotation(tc.sets, 1, 5)
			if err != nil {
				t.Fatal(err)
			}
			l := New(Config{
				Sets: tc.sets, SRAMWays: 2, NVMWays: 4,
				Policy: tc.pol, Thresholds: FixedThreshold(40),
				Endurance: testEndurance, Sampler: stats.NewRNG(5),
				NVMReplacement: tc.repl,
				SetMapper:      rot, SetMapperAdvance: true,
			})
			r := stats.NewRNG(17)
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
					l.EndEpoch() // the rotation mapper advances and flushes
				}
				if err := l.CheckInvariants(); err != nil {
					t.Fatalf("phase %d after aging and remap: %v", phase, err)
				}
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
			var rot *coloring.Rotation
			if mapped && sets > 1 {
				var err error
				if rot, err = coloring.NewRotation(sets, 1, 1); err != nil {
					t.Fatal(err)
				}
				rot.Epoch(nil) // offset 1: the mapping is not the identity
				cfg.SetMapper = rot
			}
			l := New(cfg)
			for k := 0; k < 2000; k++ {
				b := r.Uint64()
				want := int(b % uint64(sets))
				if rot != nil {
					want = rot.Map(want)
				}
				if got := l.SetOf(b); got != want {
					t.Fatalf("sets %d mapped %v: SetOf(%#x) = %d, want %d", sets, mapped, b, got, want)
				}
			}
		}
	}
}
