package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// summariesBitIdentical compares every summary field, floats by bit
// pattern — the chunked MeasureCtx must not merely approximate the
// one-shot window, it must reproduce it exactly.
func summariesBitIdentical(t *testing.T, want, got Summary) {
	t.Helper()
	if want.Policy != got.Policy {
		t.Errorf("policy %q != %q", got.Policy, want.Policy)
	}
	floats := [][2]float64{
		{want.MeanIPC, got.MeanIPC},
		{want.HitRate, got.HitRate},
		{want.Capacity, got.Capacity},
	}
	for _, f := range floats {
		if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
			t.Errorf("float mismatch: want %v got %v", f[0], f[1])
		}
	}
	counts := [][2]uint64{
		{want.Hits, got.Hits},
		{want.Misses, got.Misses},
		{want.SRAMHits, got.SRAMHits},
		{want.NVMHits, got.NVMHits},
		{want.Inserts, got.Inserts},
		{want.Migrations, got.Migrations},
		{want.NVMBlockWrites, got.NVMBlockWrites},
		{want.NVMBytesWritten, got.NVMBytesWritten},
	}
	for i, c := range counts {
		if c[0] != c[1] {
			t.Errorf("counter %d: want %d got %d", i, c[0], c[1])
		}
	}
}

// oneShot is the reference the chunked runner must reproduce: one
// hier.System.Run call for the warm-up and one for the window, condensed
// field for field.
func oneShot(t *testing.T, cfg Config, warmup, measure uint64) Summary {
	t.Helper()
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(warmup)
	r := sys.Run(measure)
	return Summary{
		Policy:          sys.LLC().Policy().Name(),
		MeanIPC:         r.MeanIPC,
		HitRate:         r.LLC.HitRate(),
		Hits:            r.LLC.Hits,
		Misses:          r.LLC.Misses,
		NVMBytesWritten: r.LLC.NVMBytesWritten,
		NVMBlockWrites:  r.LLC.NVMBlockWrites,
		SRAMHits:        r.LLC.SRAMHits,
		NVMHits:         r.LLC.NVMHits,
		Inserts:         r.LLC.Inserts,
		Migrations:      r.LLC.Migrations,
		Capacity:        sys.LLC().EffectiveCapacityFraction(),
		Metrics:         r.Metrics,
	}
}

// chunked measures a freshly built system through MeasureCtx.
func chunked(t *testing.T, cfg Config, warmup, measure uint64) Summary {
	t.Helper()
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	got, err := MeasureCtx(context.Background(), sys, warmup, measure, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestMeasureCtxMatchesMeasure pins the determinism claim the simd
// result cache and the chunked-run hooks rest on: running the window in
// epoch-sized chunks with cancellation checks produces a bit-identical
// summary, registry delta included, to a direct hier.System.Run of the
// warm-up and the window. The window deliberately does not divide
// evenly into QuickConfig's epoch size.
func TestMeasureCtxMatchesMeasure(t *testing.T) {
	const warmup, measure = 300_000, 1_100_000
	cfg := QuickConfig()
	want := oneShot(t, cfg, warmup, measure)
	got := chunked(t, cfg, warmup, measure)
	summariesBitIdentical(t, want, got)
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Error("registry delta of the chunked window differs from the one-shot run's")
	}
}

// TestMeasureCtxShardedMatches: a config that names the sequential shard
// count (shards=1) shares the default's cache key, so its run must
// reproduce the default's one-shot window bit for bit; a parallel shard
// count builds no system at all.
func TestMeasureCtxShardedMatches(t *testing.T) {
	const warmup, measure = 300_000, 1_100_000
	cfg := QuickConfig()
	want := oneShot(t, cfg, warmup, measure)

	cfg.Shards = 1
	summariesBitIdentical(t, want, chunked(t, cfg, warmup, measure))

	cfg.Shards = 2
	if _, err := cfg.Build(); err == nil {
		t.Fatal("Build accepted shards=2")
	}
}

func TestMeasureCtxHooks(t *testing.T) {
	cfg := QuickConfig() // 500k-cycle epochs
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}

	var epochs []int
	var lastDone, lastTotal uint64
	_, err = MeasureCtx(context.Background(), sys, 200_000, 1_300_000, RunHooks{
		OnEpoch:    func(s metrics.Sample) { epochs = append(epochs, s.Epoch) },
		OnProgress: func(done, total uint64) { lastDone, lastTotal = done, total },
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1.5M cycles of 500k-cycle epochs close at least 2 epochs (the last
	// partial epoch stays open).
	if len(epochs) < 2 {
		t.Fatalf("want >= 2 epoch callbacks, got %d (%v)", len(epochs), epochs)
	}
	for i := 1; i < len(epochs); i++ {
		if epochs[i] != epochs[i-1]+1 {
			t.Fatalf("epoch sequence not contiguous: %v", epochs)
		}
	}
	if lastTotal != 1_500_000 || lastDone != lastTotal {
		t.Fatalf("final progress %d/%d, want %d/%d", lastDone, lastTotal, lastTotal, lastTotal)
	}
}

// TestMeasureCtxCheckpoints pins the progress checkpoints OnProgress
// reports: one per chunk, never going backwards, with a constant total,
// and the last one at exactly total/total.
func TestMeasureCtxCheckpoints(t *testing.T) {
	cfg := QuickConfig() // 500k-cycle epochs
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}

	var dones, totals []uint64
	_, err = MeasureCtx(context.Background(), sys, 200_000, 1_300_000, RunHooks{
		OnProgress: func(done, total uint64) {
			dones = append(dones, done)
			totals = append(totals, total)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dones) < 3 {
		t.Fatalf("want >= 3 progress callbacks over a 1.5M-cycle window, got %d", len(dones))
	}
	for i := 1; i < len(dones); i++ {
		if dones[i] < dones[i-1] || totals[i] != totals[0] {
			t.Fatalf("progress not monotonic over a fixed total: %d/%d -> %d/%d",
				dones[i-1], totals[i-1], dones[i], totals[i])
		}
	}
	last, total := dones[len(dones)-1], totals[len(totals)-1]
	if total != 1_500_000 || last != total {
		t.Fatalf("final progress %d/%d, want %d/%d", last, total, 1_500_000, 1_500_000)
	}
}

func TestMeasureCtxCancellation(t *testing.T) {
	cfg := QuickConfig()
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	_, err = MeasureCtx(ctx, sys, 0, 50_000_000, RunHooks{
		OnEpoch: func(metrics.Sample) {
			fired++
			if fired == 2 {
				cancel() // cancel mid-run
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	now := sys.Now()
	if now == 0 || now >= 50_000_000 {
		t.Fatalf("expected a partial run, stopped at cycle %d", now)
	}

	// A pre-canceled context stops before simulating anything further.
	before := sys.Now()
	if _, err := MeasureCtx(ctx, sys, 0, 1_000_000, RunHooks{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if sys.Now() != before {
		t.Fatalf("pre-canceled run advanced the clock %d -> %d", before, sys.Now())
	}
}
