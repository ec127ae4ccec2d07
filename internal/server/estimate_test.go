package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/jobstore"
)

// estimateTestBody is a quick calibration: small geometry, short
// window, endurance low enough for a finite closed-form lifetime.
const estimateTestBody = `{
  "config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 200000,
             "policy": "BH", "endurance_mean": 20000},
  "warmup_cycles": 100000,
  "calibration_cycles": 300000
}`

func TestEstimateSpecDecodeRejections(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string // substring of the error
	}{
		{"unknown-top-level", `{"calibration_cyclez": 1}`, "unknown field"},
		{"unknown-config", `{"config": {"bogus": 1}}`, "unknown field"},
		{"trailing", `{} {}`, "trailing"},
		{"zero-window", `{"calibration_cycles": 0}`, "calibration_cycles"},
		{"bad-target", `{"target_capacity": 1.5}`, "target_capacity"},
		{"over-ceiling", `{"config": {"llc_sets": 1048577}}`, "sets"},
		{"not-json", `nonsense`, "estimate spec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeEstimateSpec([]byte(tc.body)); err == nil {
				t.Fatalf("accepted %s", tc.body)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestEstimateSpecDecodeDefaults(t *testing.T) {
	spec, err := DecodeEstimateSpec([]byte(`{"config": {"policy": "BH"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Config.PolicyName != "BH" {
		t.Fatalf("policy %q", spec.Config.PolicyName)
	}
	def := analytic.DefaultSpec()
	if spec.CalibrationCycles != def.CalibrationCycles || spec.WarmupCycles != def.WarmupCycles ||
		spec.TargetCapacity != def.TargetCapacity {
		t.Fatalf("omitted fields drifted from the defaults: %+v", spec)
	}
}

func postEstimate(t testing.TB, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/estimate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestEstimateEndpoint pins the synchronous estimate surface: a first
// query calibrates, repeat queries hit the cache and render
// byte-identical bodies. The young IPC equals, bit for bit, the mean
// IPC of a job on the same config whose measure window is the
// calibration window: the two are one simulation.
func TestEstimateEndpoint(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	resp, first := postEstimate(t, srv.URL, estimateTestBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, first)
	}
	var er EstimateResponse
	if err := json.Unmarshal(first, &er); err != nil {
		t.Fatalf("%v\n%s", err, first)
	}
	if er.CacheHit {
		t.Fatal("first estimate reported a cache hit")
	}
	if !strings.HasPrefix(er.CacheKey, "est-") {
		t.Fatalf("cache key %q", er.CacheKey)
	}
	if er.Estimate.Policy != "BH" || er.Estimate.YoungIPC <= 0 {
		t.Fatalf("degenerate estimate: %+v", er.Estimate)
	}
	if er.Estimate.Censored || er.Estimate.LifetimeMonths <= 0 {
		t.Fatalf("expected a finite lifetime: %+v", er.Estimate)
	}
	if er.Estimate.IPCErrorBound <= 0 || er.Estimate.LifetimeErrorBound <= 0 {
		t.Fatalf("estimate carries no bounds: %+v", er.Estimate)
	}
	if er.Calibration == nil || er.Calibration.Policy != "BH" {
		t.Fatalf("missing calibration echo: %+v", er.Calibration)
	}
	_, b := postJob(t, srv.URL, strings.Replace(estimateTestBody, "calibration_cycles", "measure_cycles", 1))
	var js JobStatus
	var rep struct {
		Fields struct {
			MeanIPC float64 `json:"mean_ipc"`
		} `json:"fields"`
	}
	if err := json.Unmarshal(b, &js); err != nil {
		t.Fatalf("%v\n%s", err, b)
	}
	if err := json.Unmarshal(waitCompleted(t, srv.URL, js.ID).Report, &rep); err != nil {
		t.Fatal(err)
	}
	if er.Estimate.YoungIPC != rep.Fields.MeanIPC {
		t.Fatalf("young_ipc %v, simulated mean_ipc %v over the same window", er.Estimate.YoungIPC, rep.Fields.MeanIPC)
	}

	resp, second := postEstimate(t, srv.URL, estimateTestBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, second)
	}
	var er2 EstimateResponse
	if err := json.Unmarshal(second, &er2); err != nil {
		t.Fatal(err)
	}
	if !er2.CacheHit {
		t.Fatal("second estimate missed the cache")
	}
	_, third := postEstimate(t, srv.URL, estimateTestBody)
	if !bytes.Equal(second, third) {
		t.Fatalf("repeat responses differ:\n%s\n%s", second, third)
	}

	if got := m.estimates.Load(); got != 3 {
		t.Fatalf("estimates counter %d, want 3", got)
	}
	if got := m.estCalibrations.Load(); got != 1 {
		t.Fatalf("calibrations counter %d, want 1", got)
	}
	if got := m.estCacheHits.Load(); got != 2 {
		t.Fatalf("cache-hit counter %d, want 2", got)
	}

	// Strict-decode rejections map to 400 with the JSON error envelope.
	resp, body := postEstimate(t, srv.URL, `{"bogus": 1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d for unknown field: %s", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "unknown field") {
		t.Fatalf("error envelope %s", body)
	}
}

// TestEstimateStoreRoundTrip pins the durable calibration path: a second
// manager over the same store serves the estimate from the artifact
// without recalibrating, and a corrupted artifact recalibrates instead
// of failing.
func TestEstimateStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := newTestManager(t, Options{Workers: 1, Store: st})
	spec, err := DecodeEstimateSpec([]byte(estimateTestBody))
	if err != nil {
		t.Fatal(err)
	}
	first, err := m1.Estimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("fresh store reported a cache hit")
	}
	m1.Close()
	st.Close()

	st2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := newTestManager(t, Options{Workers: 1, Store: st2})
	got, err := m2.Estimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !got.CacheHit {
		t.Fatal("store artifact not served as a cache hit")
	}
	if m2.estCalibrations.Load() != 0 {
		t.Fatal("second manager recalibrated despite the artifact")
	}
	if got.Estimate != first.Estimate {
		t.Fatalf("artifact round trip drifted:\n%+v\n%+v", first.Estimate, got.Estimate)
	}

	// Corrupt the artifact on disk: the estimator must recalibrate, not
	// trust it.
	if err := os.WriteFile(filepath.Join(dir, "artifacts", spec.CacheKey()), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	m3 := newTestManager(t, Options{Workers: 1, Store: st2})
	redo, err := m3.Estimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if redo.CacheHit {
		t.Fatal("corrupt artifact served as a cache hit")
	}
	if redo.Estimate != first.Estimate {
		t.Fatalf("recalibration drifted:\n%+v\n%+v", first.Estimate, redo.Estimate)
	}
}

// TestEstimateRecalibratesRetiredModelArtifact: a store may hold an
// estimate artifact from the retired uniform-redistribution model,
// marked "redistributed": true. It must not be served; the manager
// recalibrates, overwrites the artifact, and a restart over the same
// store then serves the new calibration as a cache hit.
func TestEstimateRecalibratesRetiredModelArtifact(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := DecodeEstimateSpec([]byte(estimateTestBody))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "artifacts", spec.CacheKey())
	stale := []byte(`{
  "policy": "BH",
  "mix_id": 0,
  "young_ipc": 0.5,
  "hit_rate": 0.5,
  "nvm_byte_rate": 1,
  "lifetime_seconds": 1,
  "censored": false,
  "redistributed": true,
  "warmup_cycles": 100000,
  "calibration_cycles": 300000,
  "target_capacity": 0.5
}`)
	if _, err := st.PutArtifact(spec.CacheKey(), stale); err != nil {
		t.Fatal(err)
	}

	m1 := newTestManager(t, Options{Workers: 1, Store: st})
	first, err := m1.Estimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit || m1.estCalibrations.Load() != 1 {
		t.Fatalf("redistributed artifact served: cache_hit %v, %d calibrations", first.CacheHit, m1.estCalibrations.Load())
	}
	if first.Estimate.YoungIPC == 0.5 {
		t.Fatalf("estimate carries the stale artifact's numbers: %+v", first.Estimate)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := analytic.EncodeCalibration(first.Calibration); !bytes.Equal(onDisk, want) {
		t.Fatalf("artifact not overwritten:\n%s", onDisk)
	}
	m1.Close()
	st.Close()

	st2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := newTestManager(t, Options{Workers: 1, Store: st2})
	again, err := m2.Estimate(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit || m2.estCalibrations.Load() != 0 {
		t.Fatalf("restart recalibrated: cache_hit %v, %d calibrations", again.CacheHit, m2.estCalibrations.Load())
	}
	if again.Estimate != first.Estimate {
		t.Fatalf("restart served a different estimate:\n%+v\n%+v", first.Estimate, again.Estimate)
	}
}

// TestEstimateDraining pins drain semantics: cached estimates keep
// serving, new calibrations are refused with 503.
func TestEstimateDraining(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	if resp, body := postEstimate(t, srv.URL, estimateTestBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, _ := postEstimate(t, srv.URL, estimateTestBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached estimate refused while draining: %d", resp.StatusCode)
	}
	fresh := strings.Replace(estimateTestBody, `"warmup_cycles": 100000`, `"warmup_cycles": 150000`, 1)
	resp, body := postEstimate(t, srv.URL, fresh)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("new calibration while draining: %d %s", resp.StatusCode, body)
	}
}

// estimateBudget is the latency the cached POST /v1/estimate path must
// hold: the analytic fast path's whole point is answering before a
// simulation could even warm up.
const estimateBudget = time.Millisecond

// BenchmarkEstimateFastPath is the fast-path gate of POST /v1/estimate
// (make bench-estimate). After the first query calibrates, each
// iteration is one cached query over a loopback listener; the run fails
// when their p50 reaches estimateBudget or when a cached
// Estimator.Lookup allocates. It is a benchmark, not a test, so the
// race-enabled test run never asserts on wall time.
func BenchmarkEstimateFastPath(b *testing.B) {
	m := newTestManager(b, Options{Workers: 2})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()
	if resp, body := postEstimate(b, srv.URL, estimateTestBody); resp.StatusCode != http.StatusOK {
		b.Fatalf("calibrating query: %d\n%s", resp.StatusCode, body)
	}

	lat := make([]time.Duration, b.N)
	b.ResetTimer()
	for i := range lat {
		t0 := time.Now()
		if resp, body := postEstimate(b, srv.URL, estimateTestBody); resp.StatusCode != http.StatusOK {
			b.Fatalf("cached query: %d\n%s", resp.StatusCode, body)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	slices.Sort(lat)
	p50, p99 := lat[len(lat)/2], lat[len(lat)*99/100]
	b.ReportMetric(float64(p50.Nanoseconds())/1e3, "p50-us")
	b.ReportMetric(float64(p99.Nanoseconds())/1e3, "p99-us")

	spec, err := DecodeEstimateSpec([]byte(estimateTestBody))
	if err != nil {
		b.Fatal(err)
	}
	key := spec.CacheKey()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, _, ok := m.est.Lookup(key); !ok {
			b.Fatal("calibration evicted mid-run")
		}
	})
	if p50 >= estimateBudget {
		b.Fatalf("cached estimate p50 %v reaches the %v budget", p50, estimateBudget)
	}
	if allocs != 0 {
		b.Fatalf("Estimator.Lookup allocates %.1f times per call, want 0", allocs)
	}
}
