package hier

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/metrics"
	"repro/internal/policy"
)

// TestRunCtxCancellation: a run cancelled at an epoch close stops there,
// within one epoch of the cancel, and a pre-cancelled run advances
// nothing and fires no hook.
func TestRunCtxCancellation(t *testing.T) {
	s := testSystem(t, policy.BH{}, nil, 0)
	epoch := s.Config().EpochCycles

	ctx, cancel := context.WithCancel(context.Background())
	var fired []metrics.Sample
	_, err := s.RunCtx(ctx, 100*epoch, func(smp metrics.Sample) {
		fired = append(fired, smp)
		if len(fired) == 2 {
			cancel() // cancel mid-run
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(fired) != 2 {
		t.Fatalf("%d epochs closed; the run went on past the cancel", len(fired))
	}
	if now, at := s.Now(), fired[1].Cycles; now < at || now >= at+epoch {
		t.Fatalf("cancelled at the epoch closing at cycle %d, stopped at %d", at, now)
	}

	before := s.Now()
	_, err = s.RunCtx(ctx, epoch, func(metrics.Sample) { t.Error("pre-cancelled run closed an epoch") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if s.Now() != before {
		t.Fatalf("pre-cancelled run advanced the clock %d -> %d", before, s.Now())
	}
}

// TestRunCtxMatchesRun: observing a window's epochs leaves its
// statistics unchanged, and the hook sees every epoch the ring records,
// in order.
func TestRunCtxMatchesRun(t *testing.T) {
	const cycles = 1_100_000 // not a multiple of the 200k-cycle epoch
	a := testSystem(t, policy.BH{}, nil, 2)
	b := testSystem(t, policy.BH{}, nil, 2)
	want := a.Run(cycles)
	var seen []metrics.Sample
	got, err := b.RunCtx(context.Background(), cycles, func(smp metrics.Sample) { seen = append(seen, smp) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("RunCtx statistics differ from Run's")
	}
	if !reflect.DeepEqual(seen, b.EpochSamples()) {
		t.Fatalf("hook saw %d epochs, ring holds %d", len(seen), len(b.EpochSamples()))
	}
}
