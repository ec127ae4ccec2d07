package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal outputs", same)
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	var or uint64
	for i := 0; i < 16; i++ {
		or |= r.Uint64()
	}
	if or == 0 {
		t.Fatal("zero seed produced all-zero stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := NewRNG(99)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*8/10 || c > want*12/10 {
			t.Errorf("bucket %d count %d far from %d", i, c, want)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(5)
	var m Mean
	for i := 0; i < 200000; i++ {
		m.Add(r.Normal(10, 2))
	}
	if math.Abs(m.Mean()-10) > 0.05 {
		t.Errorf("normal mean %.4f, want ~10", m.Mean())
	}
	if math.Abs(m.StdDev()-2) > 0.05 {
		t.Errorf("normal stddev %.4f, want ~2", m.StdDev())
	}
}

func TestTruncNormalRespectsFloor(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		if v := r.TruncNormal(1, 5, 0.5); v < 0.5 {
			t.Fatalf("truncated sample %v below floor", v)
		}
	}
}

func TestMeanAccumulator(t *testing.T) {
	var m Mean
	for _, v := range []float64{1, 2, 3, 4, 5} {
		m.Add(v)
	}
	if m.N() != 5 || m.Mean() != 3 {
		t.Fatalf("mean = %v (n=%d), want 3 (n=5)", m.Mean(), m.N())
	}
	if math.Abs(m.Variance()-2) > 1e-12 {
		t.Fatalf("variance = %v, want 2", m.Variance())
	}
}

func TestMeanEmpty(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Variance() != 0 || m.StdDev() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestFormatSI(t *testing.T) {
	cases := map[float64]string{
		12:      "12.00",
		2500:    "2.50K",
		2.5e6:   "2.50M",
		3.25e9:  "3.25G",
		1.5e12:  "1.50T",
		-2500.0: "-2.50K",
	}
	for in, want := range cases {
		if got := FormatSI(in); got != want {
			t.Errorf("FormatSI(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := NewRNG(21)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		return r.Uint64n(n) < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
