package server

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestArtifactResultRoundTrip pins the codec's lossless-float contract:
// a Result with NaN and infinite gauges, full counters and an epoch
// series decodes back bit-for-bit, and re-encoding reproduces the same
// artifact bytes (encoding/json sorts map keys, so the blob — and its
// journaled SHA-256 — is deterministic).
func TestArtifactResultRoundTrip(t *testing.T) {
	res := &Result{
		Summary: core.Summary{
			Policy:          "CA_RWR",
			MeanIPC:         0.1 + 0.2, // not exactly 0.3: the codec must keep the ulp
			HitRate:         0.875,
			Hits:            7,
			Misses:          1,
			NVMBytesWritten: 4096,
			NVMBlockWrites:  64,
			SRAMHits:        5,
			NVMHits:         2,
			Inserts:         9,
			Migrations:      3,
			Capacity:        0.9375,
			Metrics: metrics.Snapshot{
				Counters: map[string]uint64{"llc.hits": 7, "llc.misses": 1},
				Gauges: map[string]float64{
					"llc.hit_rate":  0.875,
					"weird.nan":     math.NaN(),
					"weird.posinf":  math.Inf(1),
					"weird.neginf":  math.Inf(-1),
					"weird.negzero": math.Copysign(0, -1),
				},
			},
		},
		Epochs: []metrics.Sample{
			{Epoch: 0, Cycles: 100, Values: []float64{1.5, math.NaN()}},
			{Epoch: 1, Cycles: 200, Values: []float64{2.5, 0.25}},
		},
		CPthWinner: 40,
	}
	blob, err := encodeResult("k", res)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}

	// NaN != NaN defeats reflect.DeepEqual, so compare bit patterns.
	if got.Summary.Policy != res.Summary.Policy || got.CPthWinner != res.CPthWinner {
		t.Fatalf("scalars changed: %+v", got)
	}
	bitsEq := func(name string, a, b float64) {
		t.Helper()
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("%s: %x != %x", name, math.Float64bits(a), math.Float64bits(b))
		}
	}
	bitsEq("mean_ipc", got.Summary.MeanIPC, res.Summary.MeanIPC)
	bitsEq("capacity", got.Summary.Capacity, res.Summary.Capacity)
	if !reflect.DeepEqual(got.Summary.Metrics.Counters, res.Summary.Metrics.Counters) {
		t.Errorf("counters changed: %v", got.Summary.Metrics.Counters)
	}
	for name, want := range res.Summary.Metrics.Gauges {
		bitsEq("gauge "+name, got.Summary.Metrics.Gauges[name], want)
	}
	if len(got.Epochs) != len(res.Epochs) {
		t.Fatalf("epochs %d != %d", len(got.Epochs), len(res.Epochs))
	}
	for i, s := range res.Epochs {
		g := got.Epochs[i]
		if g.Epoch != s.Epoch || g.Cycles != s.Cycles || len(g.Values) != len(s.Values) {
			t.Fatalf("epoch %d shape changed: %+v", i, g)
		}
		for k := range s.Values {
			bitsEq("epoch value", g.Values[k], s.Values[k])
		}
	}

	blob2, err := encodeResult("k", got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-encoding a decoded result changed the artifact bytes")
	}
}

// TestArtifactCodecCoversSummary pins core.Summary's field count. If
// this fails, a field was added to (or removed from) Summary without
// teaching the artifact codec about it — recovered results would
// silently lose data. Update artifactSummary, encodeResult and
// decodeResult, then this count.
func TestArtifactCodecCoversSummary(t *testing.T) {
	const known = 13
	if n := reflect.TypeOf(core.Summary{}).NumField(); n != known {
		t.Fatalf("core.Summary has %d fields, the artifact codec covers %d — extend internal/server/store.go", n, known)
	}
}

// TestArtifactVersionRejected pins forward-compatibility behaviour: a
// blob from a different codec version is an error, never misread.
func TestArtifactVersionRejected(t *testing.T) {
	if _, _, err := decodeResult([]byte(`{"version":999,"key":"k"}`)); err == nil {
		t.Fatal("decoded an artifact from the future")
	}
	if _, _, err := decodeResult([]byte(`not json`)); err == nil {
		t.Fatal("decoded garbage")
	}
}

// TestDecodeResultEmptyMaps pins that a minimal artifact decodes into
// usable (non-nil) metric maps.
func TestDecodeResultEmptyMaps(t *testing.T) {
	blob, err := encodeResult("k", &Result{CPthWinner: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.Metrics.Counters == nil || got.Summary.Metrics.Gauges == nil {
		t.Fatal("decoded snapshot has nil maps")
	}
}
