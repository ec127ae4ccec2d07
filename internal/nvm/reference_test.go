package nvm

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// refFrame is the plain frame model: no cached next-death limit (every
// wear step rescans limits[order[next]] <= wear) and no published
// capacity. The property test below drives it in lock step with the real
// frames of an array.
type refFrame struct {
	limits [FrameBytes]float64
	order  [FrameBytes]uint8
	faulty [FrameBytes]bool
	live   int
	wear   float64
	next   int
	gran   Granularity
	dead   bool
}

// newRefFrame copies f's limits and granularity, and derives the death
// order from the limits itself, so a wrong order in f shows as a mismatch.
func newRefFrame(f *Frame) *refFrame {
	r := &refFrame{limits: f.limits, live: FrameBytes, gran: f.gran}
	for i := range r.order {
		r.order[i] = uint8(i)
	}
	sort.SliceStable(r.order[:], func(a, b int) bool { return r.limits[r.order[a]] < r.limits[r.order[b]] })
	return r
}

func (r *refFrame) liveBytes() int {
	if r.dead {
		return 0
	}
	return r.live
}

func (r *refFrame) capacity() int {
	if r.dead {
		return 0
	}
	return min(max(r.live-MetaBytes, 0), DataBytes)
}

func (r *refFrame) recordWrite(ecb int) int {
	if r.dead || r.live == 0 {
		return 0
	}
	return r.addWear(float64(ecb) / float64(r.live))
}

func (r *refFrame) addWear(delta float64) int {
	if r.dead {
		return 0
	}
	r.wear += delta
	died := 0
	for r.next < FrameBytes && r.limits[r.order[r.next]] <= r.wear {
		bi := r.order[r.next]
		r.next++
		if r.faulty[bi] {
			continue
		}
		r.faulty[bi] = true
		r.live--
		died++
	}
	if died > 0 && (r.gran == FrameDisabling || r.live < MinECB) {
		r.dead = true
	}
	return died
}

func (r *refFrame) advanceTo(w float64) int {
	if w <= r.wear {
		return 0
	}
	return r.addWear(w - r.wear)
}

func (r *refFrame) injectFault(i int) {
	if r.dead || r.faulty[i] {
		return
	}
	r.faulty[i] = true
	r.live--
	if r.gran == FrameDisabling || r.live < MinECB {
		r.dead = true
	}
}

// nextLimit scans for the next live byte's limit.
func (r *refFrame) nextLimit() float64 {
	for i := r.next; i < FrameBytes; i++ {
		if !r.faulty[r.order[i]] {
			return r.limits[r.order[i]]
		}
	}
	return math.Inf(1)
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestFrameMatchesReference drives random operation sequences through an
// array's frames and a reference model that scans for deaths on every
// wear step. After every step each frame must agree with its reference
// on bytes died, LiveBytes, Dead, EffectiveCapacity and Wear, and every
// logical set's capacity row must equal its frames' reference capacities
// — through snapshot/restore and inter-set remaps. NextLimit builds the
// death order, so it is compared only on about one step in four, and
// never for physical frame 0: that frame's order is built by the write
// path alone. Every step checks the cached nextLimit instead: exact
// while the order is unbuilt, never above the next live limit after.
func TestFrameMatchesReference(t *testing.T) {
	const sets, ways = 3, 2
	prop := func(seed uint64, frameGran bool) bool {
		gran := ByteDisabling
		if frameGran {
			gran = FrameDisabling
		}
		r := stats.NewRNG(seed)
		a := NewArray(sets, ways, testModel, stats.NewRNG(seed^0x5eed), gran)
		refs := make([]*refFrame, len(a.Frames()))
		for i, f := range a.Frames() {
			refs[i] = newRefFrame(f)
		}
		index := func() map[*Frame]int {
			m := make(map[*Frame]int, len(refs))
			for i, f := range a.Frames() {
				m[f] = i
			}
			return m
		}
		idx := index()
		for step := 0; step < 400; step++ {
			i := r.Intn(len(refs))
			f, ref := a.Frames()[i], refs[i]
			var got, want int
			op := r.Intn(100)
			switch {
			case op < 30:
				ecb := MinECB + r.Intn(FrameBytes-MinECB+1)
				got, want = f.RecordWrite(ecb), ref.recordWrite(ecb)
			case op < 55:
				d := r.Float64() * 80
				got, want = f.AddWear(d), ref.addWear(d)
			case op < 70:
				// Land exactly on, just below or just past the next limit.
				w := ref.nextLimit() * (1 + float64(r.Intn(3)-1)*1e-12)
				got, want = f.AdvanceTo(w), ref.advanceTo(w)
			case op < 72:
				w := math.Inf(1)
				got, want = f.AdvanceTo(w), ref.advanceTo(w)
			case op < 74:
				w := math.NaN()
				got, want = f.AdvanceTo(w), ref.advanceTo(w)
			case op < 84:
				b := r.Intn(FrameBytes)
				f.InjectFault(b)
				ref.injectFault(b)
			case op < 86:
				f.Disable()
				ref.dead = true
			case op < 93:
				b, err := RestoreArray(a.Snapshot())
				if err != nil {
					t.Logf("seed %d step %d: restore: %v", seed, step, err)
					return false
				}
				a = b
				idx = index()
			default:
				a.AdvanceSetRemap(r.Intn(2*sets) - sets)
			}
			if got != want {
				t.Logf("seed %d step %d op %d frame %d: %d bytes died, reference %d", seed, step, op, i, got, want)
				return false
			}
			for j, f := range a.Frames() {
				ref := refs[j]
				if f.LiveBytes() != ref.liveBytes() || f.Dead() != ref.dead ||
					f.EffectiveCapacity() != ref.capacity() || !sameFloat(f.Wear(), ref.wear) {
					t.Logf("seed %d step %d op %d frame %d: live %d dead %v cap %d wear %v; reference %d %v %d %v",
						seed, step, op, j, f.LiveBytes(), f.Dead(), f.EffectiveCapacity(), f.Wear(),
						ref.liveBytes(), ref.dead, ref.capacity(), ref.wear)
					return false
				}
				if want := ref.nextLimit(); f.nextLimit > want || (!f.sorted && f.nextLimit != want) {
					t.Logf("seed %d step %d op %d frame %d: cached nextLimit %v (order built %v), next live limit %v",
						seed, step, op, j, f.nextLimit, f.sorted, want)
					return false
				}
				if j != 0 && r.Intn(4) == 0 && !sameFloat(f.NextLimit(), ref.nextLimit()) {
					t.Logf("seed %d step %d op %d frame %d: NextLimit %v, reference %v",
						seed, step, op, j, f.NextLimit(), ref.nextLimit())
					return false
				}
			}
			for s := 0; s < sets; s++ {
				row := a.CapRow(s)
				for w := 0; w < ways; w++ {
					if want := refs[idx[a.Frame(s, w)]].capacity(); int(row[w]) != want {
						t.Logf("seed %d step %d: CapRow(%d)[%d] = %d, reference %d", seed, step, s, w, row[w], want)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCapRowsCatchesStaleRow pins the checker the LLC invariants
// rely on: a capacity byte that disagrees with its frame is reported.
func TestCheckCapRowsCatchesStaleRow(t *testing.T) {
	a := NewArray(4, 3, testModel, stats.NewRNG(9), ByteDisabling)
	if err := a.CheckCapRows(); err != nil {
		t.Fatal(err)
	}
	a.caps[5] = 7
	if err := a.CheckCapRows(); err == nil {
		t.Fatal("stale capacity byte not reported")
	}
}
