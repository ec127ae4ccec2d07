package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/metrics"
)

// summariesBitIdentical compares every summary field, floats by bit
// pattern — the chunked MeasureCtx must not merely approximate the
// one-shot Measure, it must reproduce it exactly.
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

// TestMeasureCtxMatchesMeasure pins the determinism claim the simd
// result cache and the chunked-run hooks rest on: running the window in
// epoch-sized chunks with cancellation checks produces a bit-identical
// summary to the one-shot Measure. The window deliberately does not
// divide evenly into QuickConfig's epoch size.
func TestMeasureCtxMatchesMeasure(t *testing.T) {
	const warmup, measure = 300_000, 1_100_000
	cfg := QuickConfig()

	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := Measure(sys, warmup, measure)

	h, err := cfg.NewRunHandle()
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.MeasureCtx(context.Background(), warmup, measure, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	summariesBitIdentical(t, want, got)
}

// TestMeasureCtxShardedMatches: a config that names the sequential shard
// count (shards=1) shares the default's cache key, so its run handle
// must reproduce the default's one-shot Measure bit for bit; a parallel
// shard count gets no handle at all.
func TestMeasureCtxShardedMatches(t *testing.T) {
	const warmup, measure = 300_000, 1_100_000
	cfg := QuickConfig()

	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := Measure(sys, warmup, measure)

	cfg.Shards = 1
	h, err := cfg.NewRunHandle()
	if err != nil {
		t.Fatal(err)
	}
	got, err := h.MeasureCtx(context.Background(), warmup, measure, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	summariesBitIdentical(t, want, got)

	cfg.Shards = 2
	if _, err := cfg.NewRunHandle(); err == nil {
		t.Fatal("NewRunHandle accepted shards=2")
	}
}

func TestMeasureCtxHooks(t *testing.T) {
	cfg := QuickConfig() // 500k-cycle epochs
	h, err := cfg.NewRunHandle()
	if err != nil {
		t.Fatal(err)
	}

	var epochs []int
	var lastDone, lastTotal uint64
	_, err = h.MeasureCtx(context.Background(), 200_000, 1_300_000, RunHooks{
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

// TestMeasureCtxCheckpoints pins the durable-progress hook the simd job
// store journals: checkpoints fire per chunk, monotonically, after the
// chunk's epochs were delivered (the epoch count never runs ahead of
// OnEpoch), and the final checkpoint reports the full window.
func TestMeasureCtxCheckpoints(t *testing.T) {
	cfg := QuickConfig() // 500k-cycle epochs
	h, err := cfg.NewRunHandle()
	if err != nil {
		t.Fatal(err)
	}

	var cps []Checkpoint
	delivered := 0
	_, err = h.MeasureCtx(context.Background(), 200_000, 1_300_000, RunHooks{
		OnEpoch: func(metrics.Sample) { delivered++ },
		OnCheckpoint: func(cp Checkpoint) {
			if cp.Epochs > delivered {
				t.Fatalf("checkpoint claims %d epochs, only %d delivered", cp.Epochs, delivered)
			}
			cps = append(cps, cp)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cps) < 3 {
		t.Fatalf("want >= 3 checkpoints over a 1.5M-cycle window, got %d", len(cps))
	}
	for i := 1; i < len(cps); i++ {
		if cps[i].Cycles < cps[i-1].Cycles || cps[i].Epochs < cps[i-1].Epochs {
			t.Fatalf("checkpoints not monotonic: %+v -> %+v", cps[i-1], cps[i])
		}
	}
	last := cps[len(cps)-1]
	if last.TotalCycles != 1_500_000 || last.Cycles != last.TotalCycles {
		t.Fatalf("final checkpoint %+v, want %d/%d", last, 1_500_000, 1_500_000)
	}
}

func TestMeasureCtxCancellation(t *testing.T) {
	cfg := QuickConfig()
	h, err := cfg.NewRunHandle()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	_, err = h.MeasureCtx(ctx, 0, 50_000_000, RunHooks{
		OnEpoch: func(metrics.Sample) {
			fired++
			if fired == 2 {
				cancel() // checkpoint-cancel mid-run
			}
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	now := h.System().Now()
	if now == 0 || now >= 50_000_000 {
		t.Fatalf("expected a partial run, stopped at cycle %d", now)
	}

	// A pre-canceled context stops before simulating anything further.
	before := h.System().Now()
	if _, err := h.MeasureCtx(ctx, 0, 1_000_000, RunHooks{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if h.System().Now() != before {
		t.Fatalf("pre-canceled run advanced the clock %d -> %d", before, h.System().Now())
	}
}
