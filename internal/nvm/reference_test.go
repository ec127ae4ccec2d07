package nvm

import (
	"math"
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

// refFrame is the plain frame model: a bool per byte instead of a fault
// bitmap, a scan for the picked live byte, and no published capacity.
// It draws from the stream of the frame it shadows (the same key, index
// and draw count, through Keyed and limitSlab.after), so the property
// test below can drive the two in lock step: the distribution of the
// draws is the eager comparison's business, the bookkeeping this one's.
type refFrame struct {
	slab   *limitSlab
	idx    uint32
	faulty [FrameBytes]bool
	live   int
	wear   float64
	limit  float64 // the next live byte's limit
	ls     float32 // ln S(limit)
	draws  uint64
	gran   Granularity
	dead   bool
}

// newRefFrame shadows the fresh frame f.
func newRefFrame(f *Frame) *refFrame {
	r := &refFrame{slab: f.slab, idx: f.idx, live: FrameBytes, gran: f.gran}
	r.draw(0, 0)
	return r
}

// next returns the frame's next draw from its stream.
func (r *refFrame) next() (float64, uint64) {
	u, b := stats.Keyed(r.slab.key, uint64(r.idx)<<8|r.draws)
	r.draws++
	return u, b
}

func (r *refFrame) draw(base float64, ls float32) {
	u, _ := r.next()
	r.limit, r.ls = r.slab.after(base, ls, r.live, u)
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

func (r *refFrame) nextLimit() float64 {
	if r.dead {
		return math.Inf(1)
	}
	return r.limit
}

func (r *refFrame) faultMap() FaultMap {
	var m FaultMap
	for i, bad := range r.faulty {
		if bad {
			m.Set(i)
		}
	}
	return m
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
	for r.limit <= r.wear {
		u, pick := r.next()
		j, _ := bits.Mul64(pick, uint64(r.live))
		for i := range r.faulty {
			if !r.faulty[i] {
				if j == 0 {
					r.faulty[i] = true
					break
				}
				j--
			}
		}
		r.live--
		died++
		if r.gran == FrameDisabling || r.live < MinECB {
			r.dead = true
			break
		}
		r.limit, r.ls = r.slab.after(r.limit, r.ls, r.live, u)
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
		return
	}
	r.draw(r.wear, r.slab.logSurvival(r.wear))
}

func sameFloat(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// TestFrameMatchesReference drives random operation sequences through an
// array's frames and a reference model that shadows each frame's draws.
// After every step each frame must agree with its reference on bytes
// died, LiveBytes, Dead, EffectiveCapacity, Wear, the fault map and
// NextLimit, and every logical set's capacity row must equal its frames'
// reference capacities — through inter-set remaps.
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
		idx := make(map[*Frame]int, len(refs))
		for i, f := range a.Frames() {
			idx[f] = i
		}
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
				// Land exactly on, just below or just past the next
				// limit.
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
					f.EffectiveCapacity() != ref.capacity() || !sameFloat(f.Wear(), ref.wear) ||
					f.FaultMap() != ref.faultMap() || !sameFloat(f.NextLimit(), ref.nextLimit()) {
					t.Logf("seed %d step %d op %d frame %d: live %d dead %v cap %d wear %v faults %v next %v; "+
						"reference %d %v %d %v %v %v",
						seed, step, op, j, f.LiveBytes(), f.Dead(), f.EffectiveCapacity(), f.Wear(), f.FaultMap(), f.NextLimit(),
						ref.liveBytes(), ref.dead, ref.capacity(), ref.wear, ref.faultMap(), ref.nextLimit())
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
	a.slab.caps[5] = 7
	if err := a.CheckCapRows(); err == nil {
		t.Fatal("stale capacity byte not reported")
	}
}

// eagerLimits is the eager reference: a frame's FrameBytes limits drawn
// from s with TruncNormal, one byte after another, and sorted.
func eagerLimits(s *stats.RNG, model EnduranceModel) [FrameBytes]float64 {
	var x [FrameBytes]float64
	for i := range x {
		x[i] = s.TruncNormal(model.Mean, model.Mean*model.CV, truncLo)
	}
	slices.Sort(x[:])
	return x
}

// streamLimits returns every limit the fresh frame f's stream gives, in
// death order: the deaths f would see if it never died of too few bytes.
// It draws as AddWear does, one draw a death, each above the last.
func streamLimits(f *Frame) [FrameBytes]float64 {
	var x [FrameBytes]float64
	x[0] = f.nextLimit
	for k := 1; k < FrameBytes; k++ {
		f.live--
		f.draw(f.nextLimit, f.ls)
		x[k] = f.nextLimit
	}
	return x
}

// orderMoments accumulates, for each order statistic X₍ₖ₎ of a frame,
// the power sums of its values in standard units of the model, from
// which the mean, the variance and their standard errors follow.
type orderMoments struct {
	n      float64
	sums   [FrameBytes][4]float64 // Σd, Σd², Σd³, Σd⁴ per order
	mu, sd float64
}

func (m *orderMoments) add(x *[FrameBytes]float64) {
	m.n++
	for k, v := range x {
		d := (v - m.mu) / m.sd
		s := &m.sums[k]
		s[0] += d
		s[1] += d * d
		s[2] += d * d * d
		s[3] += d * d * d * d
	}
}

// stats returns order k's sample mean and variance and the variances of
// both estimates: var/n, and (μ₄ − var²)/n for the variance.
func (m *orderMoments) stats(k int) (mean, variance, seMean2, seVar2 float64) {
	s := &m.sums[k]
	mean = s[0] / m.n
	e2, e3, e4 := s[1]/m.n, s[2]/m.n, s[3]/m.n
	variance = e2 - mean*mean
	mu4 := e4 - 4*mean*e3 + 6*mean*mean*e2 - 3*mean*mean*mean*mean
	return mean, variance, variance / m.n, (mu4 - variance*variance) / m.n
}

// ksPValue returns the asymptotic p-value of the two-sample
// Kolmogorov–Smirnov statistic of a and b, which it sorts.
func ksPValue(a, b []float64) float64 {
	slices.Sort(a)
	slices.Sort(b)
	d := 0.0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x := min(a[i], b[j])
		for i < len(a) && a[i] == x {
			i++
		}
		for j < len(b) && b[j] == x {
			j++
		}
		d = max(d, math.Abs(float64(i)/float64(len(a))-float64(j)/float64(len(b))))
	}
	en := math.Sqrt(float64(len(a)) * float64(len(b)) / float64(len(a)+len(b)))
	lambda := (en + 0.12 + 0.11/en) * d
	p, sign := 0.0, 2.0
	for j := 1.0; j <= 100; j++ {
		term := sign * math.Exp(-2*j*j*lambda*lambda)
		p += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	return min(max(p, 0), 1)
}

// TestStreamMatchesEagerOrderStatistics is the proof that drawing a
// frame's limits as an ascending stream gives them the law of sorting
// FrameBytes eager TruncNormal draws. Over 10⁵ frames of each model, the
// mean and the variance of every order statistic X₍ₖ₎ must agree within
// three standard errors of their difference, and a two-sample
// Kolmogorov–Smirnov test on X₍₁₎ and X₍₃₃₎ must pass at p > 0.01. The
// models are the paper's and one with CV 0.5, where the truncation at
// one write removes 2.3% of the normal's mass. With 264 comparisons at
// three standard errors, about one seed pair in four fails one by
// chance (4 of 15 pairs measured); these seeds are the first tried, and
// a failure after a change to the stream needs several seeds before it
// reads as a bias.
func TestStreamMatchesEagerOrderStatistics(t *testing.T) {
	const frames = 100_000
	for _, model := range []EnduranceModel{paperModel, {Mean: 1e10, CV: 0.5}} {
		mu, sd := model.Mean, model.Mean*model.CV
		stream, eager := &orderMoments{mu: mu, sd: sd}, &orderMoments{mu: mu, sd: sd}
		ks := [2][2][]float64{} // [order 1 or 33][stream or eager]
		r, s := stats.NewRNG(1), stats.NewRNG(2)
		var f Frame
		slab := newLimitSlab(model, 1, r)
		f.slab = &slab
		for i := 0; i < frames; i++ {
			slab.key = r.Uint64()
			f.sample(ByteDisabling)
			x, y := streamLimits(&f), eagerLimits(s, model)
			stream.add(&x)
			eager.add(&y)
			for o, k := range []int{0, 32} {
				ks[o][0] = append(ks[o][0], x[k])
				ks[o][1] = append(ks[o][1], y[k])
			}
		}
		for k := 0; k < FrameBytes; k++ {
			m1, v1, sm1, sv1 := stream.stats(k)
			m2, v2, sm2, sv2 := eager.stats(k)
			if se := math.Sqrt(sm1 + sm2); math.Abs(m1-m2) > 3*se {
				t.Errorf("%+v X(%d): mean %.5f sd units, eager %.5f (3 SE = %.5f)", model, k+1, m1, m2, 3*se)
			}
			if se := math.Sqrt(sv1 + sv2); math.Abs(v1-v2) > 3*se {
				t.Errorf("%+v X(%d): variance %.5f sd², eager %.5f (3 SE = %.5f)", model, k+1, v1, v2, 3*se)
			}
		}
		for o, k := range []int{1, 33} {
			if p := ksPValue(ks[o][0], ks[o][1]); p <= 0.01 {
				t.Errorf("%+v X(%d): two-sample KS p = %.4f", model, k, p)
			}
		}
	}
}
