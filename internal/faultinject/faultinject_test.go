package faultinject

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/nvm"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func newArray(t *testing.T, sets, ways int, gran nvm.Granularity) *nvm.Array {
	t.Helper()
	model := nvm.EnduranceModel{Mean: 1e10, CV: 0.25}
	return nvm.NewArray(sets, ways, model, stats.NewRNG(42), gran)
}

func TestStuckBytesCountAndConsistency(t *testing.T) {
	arr := newArray(t, 16, 8, nvm.ByteDisabling)
	c, err := NewCampaign(arr, Spec{Seed: 7, Steps: []Step{{Kind: StuckBytes, Count: 200}}})
	if err != nil {
		t.Fatal(err)
	}
	res, ok := c.Next()
	if !ok || res.BytesDisabled != 200 {
		t.Fatalf("disabled %d bytes, ok=%v", res.BytesDisabled, ok)
	}
	total := 0
	for _, f := range arr.Frames() {
		if f.FaultyBytes() != f.FaultMap().Count() {
			t.Fatalf("fault map count %d != faulty bytes %d", f.FaultMap().Count(), f.FaultyBytes())
		}
		total += f.FaultyBytes()
	}
	if total != 200 {
		t.Fatalf("array holds %d faulty bytes, want 200", total)
	}
	if _, ok := c.Next(); ok {
		t.Fatal("exhausted campaign produced a step")
	}
}

func TestKillFramesAndCapacity(t *testing.T) {
	arr := newArray(t, 16, 8, nvm.FrameDisabling)
	c, err := NewCampaign(arr, Spec{Seed: 9, Steps: []Step{{Kind: KillFrames, Count: 32}}})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := c.Next()
	if res.FramesKilled != 32 || arr.LiveFrames() != 16*8-32 {
		t.Fatalf("killed %d, live %d", res.FramesKilled, arr.LiveFrames())
	}
	want := float64(16*8-32) / float64(16*8)
	if res.Capacity > want+1e-9 {
		t.Fatalf("capacity %g after killing a quarter of the frames", res.Capacity)
	}
}

func TestToCapacityReachesTarget(t *testing.T) {
	arr := newArray(t, 32, 8, nvm.ByteDisabling)
	c, err := NewCampaign(arr, Spec{Seed: 3, Steps: []Step{{Kind: ToCapacity, Target: 0.5}}})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := c.Next()
	if res.Capacity > 0.5 {
		t.Fatalf("capacity %g, want <= 0.5", res.Capacity)
	}
	// One frame kill below the threshold, not a wild overshoot.
	if res.Capacity < 0.5-2.0/float64(32*8) {
		t.Fatalf("capacity %g overshot target", res.Capacity)
	}
}

func TestWearMultiplierKillsWeakBytes(t *testing.T) {
	arr := newArray(t, 8, 4, nvm.ByteDisabling)
	c, err := NewCampaign(arr, Spec{Seed: 1, Steps: []Step{{Kind: WearMultiplier, Mult: 1.0}}})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := c.Next()
	// Advancing wear to the endurance mean must kill roughly half of all
	// bytes (normal distribution), certainly more than a quarter.
	if res.BytesDisabled < 8*4*nvm.FrameBytes/4 {
		t.Fatalf("only %d bytes died at mean wear", res.BytesDisabled)
	}
	for _, f := range arr.Frames() {
		if f.Wear() < 1e10 && !f.Dead() {
			t.Fatalf("live frame wear %g below target", f.Wear())
		}
	}
}

func TestRegionTargetedBurst(t *testing.T) {
	arr := newArray(t, 16, 8, nvm.ByteDisabling)
	spec := Spec{Seed: 11, Steps: []Step{{
		Kind: StuckBytes, Count: 100,
		SetLo: 4, SetHi: 8, WayLo: 2, WayHi: 6,
	}}}
	c, err := NewCampaign(arr, spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Next()
	for s := 0; s < 16; s++ {
		for w := 0; w < 8; w++ {
			inRegion := s >= 4 && s < 8 && w >= 2 && w < 6
			if fb := arr.Frame(s, w).FaultyBytes(); !inRegion && fb != 0 {
				t.Fatalf("frame (%d,%d) outside region has %d faults", s, w, fb)
			}
		}
	}
}

func TestCampaignDeterminism(t *testing.T) {
	spec := Spec{Seed: 123, Steps: []Step{
		{Kind: StuckBytes, Count: 150},
		{Kind: KillFrames, Count: 10},
		{Kind: ToCapacity, Target: 0.7},
	}}
	run := func() ([]StepResult, []int) {
		arr := newArray(t, 16, 8, nvm.ByteDisabling)
		c, err := NewCampaign(arr, spec)
		if err != nil {
			t.Fatal(err)
		}
		results := c.Run()
		var faults []int
		for _, f := range arr.Frames() {
			faults = append(faults, f.FaultyBytes())
		}
		return results, faults
	}
	r1, f1 := run()
	r2, f2 := run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("step results diverged:\n%v\n%v", r1, r2)
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("per-frame fault distribution diverged between same-seed runs")
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{Steps: []Step{{Kind: "melt_cache"}}},
		{Steps: []Step{{Kind: StuckBytes, Count: 0}}},
		{Steps: []Step{{Kind: KillFrames, Count: -3}}},
		{Steps: []Step{{Kind: WearMultiplier, Mult: 0}}},
		{Steps: []Step{{Kind: ToCapacity, Target: 1.5}}},
		{Steps: []Step{{Kind: StuckBytes, Count: 1, SetLo: 4, SetHi: 2}}},
		{Steps: []Step{{Kind: StuckBytes, Count: 1, WayLo: -1}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

func TestSpecJSONRoundtrip(t *testing.T) {
	in := []byte(`{"seed": 5, "steps": [
		{"kind": "stuck_bytes", "count": 10, "set_lo": 1, "set_hi": 3},
		{"kind": "to_capacity", "target": 0.5}
	]}`)
	s, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 5 || len(s.Steps) != 2 || s.Steps[1].Target != 0.5 {
		t.Fatalf("parsed %+v", s)
	}
	for _, bad := range []string{
		`{"seed": 1, "bogus": true}`,  // unknown field
		`{"steps":[{"kind":"nope"}]}`, // invalid step
		`{"seed": 1} {"seed": 2}`,     // second document
		`{"seed": 1} garbage`,         // trailing garbage
	} {
		if _, err := ParseSpec([]byte(bad)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestCapacityRamp(t *testing.T) {
	s := CapacityRamp(1, 1.0, 0.5, 0.1)
	if len(s.Steps) != 5 {
		t.Fatalf("%d steps: %+v", len(s.Steps), s.Steps)
	}
	if s.Steps[0].Target != 0.9 || s.Steps[4].Target > 0.5+1e-9 {
		t.Fatalf("targets %+v", s.Steps)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(CapacityRamp(1, 1.0, 0.5, 0).Steps); got != 0 {
		t.Fatalf("zero step produced %d steps", got)
	}
}

func recordTrace(t *testing.T, n int) []byte {
	t.Helper()
	app, err := workload.NewApp(workload.Profiles()["xz17"], 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Record(app, n, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTraceFaultTruncation(t *testing.T) {
	data := recordTrace(t, 50)
	corrupt := TraceFault{Truncate: 1}.Apply(data)
	if len(corrupt) != len(data)-1 {
		t.Fatalf("len %d, want %d", len(corrupt), len(data)-1)
	}
	r := trace.NewReader(bytes.NewReader(corrupt))
	var err error
	for err == nil {
		_, err = r.Read()
	}
	if err == io.EOF {
		t.Fatal("truncated trace read cleanly")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("want ErrUnexpectedEOF, got %v", err)
	}
}

func TestTraceFaultBitFlipsDeterministic(t *testing.T) {
	data := recordTrace(t, 50)
	orig := append([]byte(nil), data...)
	a := TraceFault{Seed: 4, BitFlips: 16}.Apply(data)
	b := TraceFault{Seed: 4, BitFlips: 16}.Apply(data)
	if !bytes.Equal(a, b) {
		t.Fatal("same-seed corruption diverged")
	}
	if bytes.Equal(a, data) {
		t.Fatal("bit flips changed nothing")
	}
	if !bytes.Equal(data, orig) {
		t.Fatal("Apply mutated its input")
	}
	c := TraceFault{Seed: 5, BitFlips: 16}.Apply(data)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
	// Whatever the corruption, the reader returns records or errors —
	// never panics (the fuzz target covers this broadly; this is the
	// campaign-level smoke check).
	r := trace.NewReader(bytes.NewReader(a))
	for i := 0; i < 1000; i++ {
		if _, err := r.Read(); err != nil {
			break
		}
	}
}

func TestTraceFaultFullTruncation(t *testing.T) {
	data := recordTrace(t, 5)
	if got := (TraceFault{Truncate: len(data) + 10}).Apply(data); len(got) != 0 {
		t.Fatalf("over-truncation left %d bytes", len(got))
	}
}
