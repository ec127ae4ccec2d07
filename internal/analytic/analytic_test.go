package analytic

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// quickSpec is a fast calibration over the quick config: small geometry,
// short window, endurance low enough that the closed-form aging pass
// finds a finite lifetime.
func quickSpec() Spec {
	cfg := core.QuickConfig()
	cfg.EpochCycles = 250_000
	cfg.EnduranceMean = 2e4
	return Spec{
		Config:            cfg,
		WarmupCycles:      100_000,
		CalibrationCycles: 300_000,
		TargetCapacity:    0.5,
	}
}

func TestCalibrateDeterminism(t *testing.T) {
	spec := quickSpec()
	a, err := Calibrate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("calibration not deterministic:\n%+v\n%+v", a, b)
	}
	if a.YoungIPC <= 0 || a.HitRate <= 0 {
		t.Fatalf("degenerate operating point: %+v", a)
	}
	if a.Censored {
		t.Fatalf("quick spec unexpectedly censored: %+v", a)
	}
	if a.LifetimeSeconds <= 0 {
		t.Fatalf("non-positive lifetime: %+v", a)
	}
}

// TestCalibrateShardEquivalence: shards 0 and 1 both name the
// sequential engine, so they share one cache key and must calibrate to
// the same result.
func TestCalibrateShardEquivalence(t *testing.T) {
	zero := quickSpec()
	one := quickSpec()
	one.Config.Shards = 1
	if one.CacheKey() != zero.CacheKey() {
		t.Fatal("shards=1 and shards=0 specs hash differently")
	}
	a, err := Calibrate(context.Background(), zero)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shard counts disagree:\n0: %+v\n1: %+v", a, b)
	}
}

// TestSpecShards pins the retired shard knob: anything above 1 fails
// validation with a pointer at sweeps.
func TestSpecShards(t *testing.T) {
	four := quickSpec()
	four.Config.Shards = 4
	err := four.Validate()
	if err == nil || !strings.Contains(err.Error(), "/v1/sweeps") {
		t.Fatalf("shards=4 spec: %v, want a rejection naming /v1/sweeps", err)
	}
	if _, err := Calibrate(context.Background(), four); err == nil {
		t.Fatal("Calibrate accepted shards=4")
	}
}

func TestCalibrateSRAMOnlyCensored(t *testing.T) {
	spec := quickSpec()
	spec.Config.PolicyName = "SRAM16"
	cal, err := Calibrate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !cal.Censored {
		t.Fatalf("SRAM bound must be censored: %+v", cal)
	}
	if cal.LifetimeSeconds != 0 {
		t.Fatalf("censored calibration carries a lifetime: %+v", cal)
	}
}

func TestCacheKeyDistinguishesInputs(t *testing.T) {
	base := quickSpec()
	mutations := map[string]func(*Spec){
		"policy":      func(s *Spec) { s.Config.PolicyName = "BH" },
		"mix":         func(s *Spec) { s.Config.MixID = 3 },
		"warmup":      func(s *Spec) { s.WarmupCycles++ },
		"calibration": func(s *Spec) { s.CalibrationCycles++ },
		"target":      func(s *Spec) { s.TargetCapacity = 0.25 },
	}
	for name, mutate := range mutations {
		s := base
		mutate(&s)
		if s.CacheKey() == base.CacheKey() {
			t.Errorf("%s: mutation did not change the cache key", name)
		}
	}
	if !strings.HasPrefix(base.CacheKey(), "est-") {
		t.Fatalf("cache key %q lacks the est- artifact prefix", base.CacheKey())
	}
}

func TestSpecValidate(t *testing.T) {
	ok := quickSpec()
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := ok
	bad.CalibrationCycles = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero calibration window accepted")
	}
	bad = ok
	bad.TargetCapacity = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("target capacity 1 accepted")
	}
	bad = ok
	bad.Config.LLCSets = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestCalibrationCodec(t *testing.T) {
	cal, err := Calibrate(context.Background(), quickSpec())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := EncodeCalibration(cal)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCalibration(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cal, back) {
		t.Fatalf("round trip drifted:\n%+v\n%+v", cal, back)
	}
	if _, err := DecodeCalibration([]byte(`{"policy":"BH","bogus":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeCalibration(append(append([]byte{}, blob...), "{}"...)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := DecodeCalibration([]byte(`{"young_ipc":1}`)); err == nil {
		t.Fatal("missing policy accepted")
	}
}

func TestEstimatorGetAndLookup(t *testing.T) {
	e := NewEstimator()
	spec := quickSpec()
	key := spec.CacheKey()
	if _, _, ok := e.Lookup(key); ok {
		t.Fatal("lookup hit on an empty cache")
	}
	cal, err := e.Do(context.Background(), key, spec)
	if err != nil {
		t.Fatal(err)
	}
	est, got, ok := e.Lookup(key)
	if !ok || got != cal {
		t.Fatalf("lookup after Do: ok=%v, calibration %p, want %p", ok, got, cal)
	}
	if want := DefaultBounds(); est.IPCErrorBound != want.IPC ||
		(!cal.Redistributed && est.LifetimeErrorBound != want.Lifetime) {
		t.Fatalf("estimate carries bounds %v/%v, want %+v", est.IPCErrorBound, est.LifetimeErrorBound, want)
	}
	again, err := e.Do(context.Background(), key, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again != cal {
		t.Fatal("second Do recalibrated instead of serving the cache")
	}
	if e.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", e.Len())
	}
}

// TestEstimatorSingleflightJoin pins the per-key singleflight: a Do
// racing an in-flight calibration blocks on it and shares its result
// instead of simulating again, and a canceled waiter unblocks with the
// context error.
func TestEstimatorSingleflightJoin(t *testing.T) {
	e := NewEstimator()
	call := &calibrateCall{done: make(chan struct{})}
	e.inflight["k"] = call

	got := make(chan *Calibration, 1)
	go func() {
		cal, err := e.Do(context.Background(), "k", quickSpec())
		if err != nil {
			t.Error(err)
		}
		got <- cal
	}()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Do(ctx, "k", quickSpec()); err != context.Canceled {
		t.Fatalf("canceled waiter got %v, want context.Canceled", err)
	}

	select {
	case cal := <-got:
		t.Fatalf("joiner returned %+v before the flight landed", cal)
	default:
	}
	want := &Calibration{Policy: "BH"}
	call.cal = want
	close(call.done)
	if cal := <-got; cal != want {
		t.Fatalf("joiner got %+v, want the in-flight result", cal)
	}
}

func TestEstimatorConcurrentGets(t *testing.T) {
	e := NewEstimator()
	spec := quickSpec()
	key := spec.CacheKey()
	const n = 8
	cals := make([]*Calibration, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cal, err := e.Do(context.Background(), key, spec)
			if err != nil {
				t.Error(err)
				return
			}
			cals[i] = cal
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if cals[i] != cals[0] {
			t.Fatalf("concurrent calls got different calibrations:\n%+v\n%+v", cals[0], cals[i])
		}
	}
	if e.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", e.Len())
	}
}

// TestLookupZeroAlloc pins the fast path POST /v1/estimate rides: a
// cache hit assembles the estimate without touching the heap.
func TestLookupZeroAlloc(t *testing.T) {
	e := NewEstimator()
	spec := quickSpec()
	key := spec.CacheKey()
	if _, err := e.Do(context.Background(), key, spec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := e.Lookup(key); !ok {
			t.Fatal("lookup missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocates %v objects per call, want 0", allocs)
	}
}
