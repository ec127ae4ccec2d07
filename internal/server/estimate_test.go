package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/analytic"
	"repro/internal/experiments"
	"repro/internal/forecast"
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
// byte-identical bodies.
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

	// Corrupt the artifact on disk (PutArtifact treats re-puts as no-ops):
	// the estimator must recalibrate, not trust it.
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

// plannerSweepBody is the coarse-to-fine planner's test matrix, tuned so
// margin-aware screening separates exactly one corner. l2_size_kb 64 → 8
// costs ~1.7× IPC (far beyond the combined IPC margin) and endurance_mean
// 60k → 12k costs 5× lifetime, so the (big L2, durable) corner dominates
// the (small L2, fragile) corner on both axes beyond the bounds — but
// neither single-axis neighbour: the same-L2 pairs tie on estimated IPC
// (screening can never separate a tie under symmetric margins), and the
// endurance-matched small-L2 corner keeps enough lifetime (ratio ~1.7 <
// the 2.33 the lifetime margins demand) to survive.
const plannerSweepBody = `{
  "name": "planned",
  "plan": "analytic",
  "plan_calibration_cycles": 300000,
  "base": {
    "config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 200000,
               "policy": "BH"},
    "warmup_cycles": 100000,
    "measure_cycles": 400000
  },
  "axes": [
    {"field": "l2_size_kb", "values": [64, 8]},
    {"field": "endurance_mean", "values": [60000, 12000]}
  ],
  "concurrency": 2
}`

// TestSweepAnalyticPlan drives the planner end to end and differentially
// verifies its safety: the sweep simulates only the estimated frontier,
// reports the screened children in the aggregate, and — checked against
// ground truth from full forecasts of every child — never screens a
// config on the true lifetime × IPC frontier.
func TestSweepAnalyticPlan(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(plannerSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var st SweepStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) && st.State == SweepRunning {
		time.Sleep(25 * time.Millisecond)
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("%v\n%s", err, b)
		}
	}
	if st.State != SweepCompleted {
		t.Fatalf("sweep ended %s: %s", st.State, b)
	}
	if st.Screened == 0 {
		t.Fatalf("planner screened nothing: %s", b)
	}
	if st.Screened+st.Completed != st.TotalChildren {
		t.Fatalf("screened %d + completed %d != total %d", st.Screened, st.Completed, st.TotalChildren)
	}
	screened := map[string]bool{}
	for _, c := range st.Children {
		if c.EstIPC == nil || c.EstLifetimeMonths == nil {
			t.Fatalf("child %s carries no estimate: %s", c.Label, b)
		}
		switch c.State {
		case StateScreened:
			screened[c.Label] = true
			if c.MeanIPC != nil {
				t.Fatalf("screened child %s has a simulated result", c.Label)
			}
		case StateCompleted:
			if c.MeanIPC == nil {
				t.Fatalf("completed child %s has no simulated result", c.Label)
			}
		default:
			t.Fatalf("child %s in state %s", c.Label, c.State)
		}
	}

	// Ground truth: the full forecast for every child config, exact
	// frontier (zero margins). Anything on the true frontier must have
	// been simulated, not screened.
	spec, err := DecodeSweepSpec([]byte(plannerSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	children, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	fcfg := forecast.DefaultConfig()
	fcfg.WarmupCycles = 100_000
	fcfg.PhaseCycles = 400_000
	fcfg.CapacityStep = 0.125
	fcfg.MaxPhases = 8
	pts := make([]experiments.ParetoPoint, len(children))
	for i, c := range children {
		sys, err := c.Request.Config.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := forecast.Run(sys, fcfg)
		life := res.LifetimeMonths()
		if math.IsInf(res.LifetimeSeconds, 1) {
			life = math.Inf(1)
		}
		pts[i] = experiments.ParetoPoint{Lifetime: life, IPC: res.Points[0].MeanIPC}
	}
	trueFrontier := experiments.ParetoFrontier(pts)
	for i, c := range children {
		t.Logf("%-42s life=%.2fmo ipc=%.4f frontier=%v screened=%v",
			c.Label, pts[i].Lifetime, pts[i].IPC, trueFrontier[i], screened[c.Label])
		if trueFrontier[i] && screened[c.Label] {
			t.Errorf("true-frontier config %s was screened", c.Label)
		}
	}
}

// TestSweepPlanValidation pins the plan field's decode rules.
func TestSweepPlanValidation(t *testing.T) {
	if _, err := DecodeSweepSpec([]byte(`{"plan": "psychic"}`)); err == nil ||
		!strings.Contains(err.Error(), "unknown plan") {
		t.Fatalf("bad plan accepted: %v", err)
	}
	spec, err := DecodeSweepSpec([]byte(`{"plan": "analytic"}`))
	if err != nil {
		t.Fatal(err)
	}
	ps := spec.planSpec(spec.Base)
	if ps.CalibrationCycles != spec.Base.MeasureCycles/4 {
		t.Fatalf("default calibration window %d, want %d", ps.CalibrationCycles, spec.Base.MeasureCycles/4)
	}
	if ps.TargetCapacity != 0.5 {
		t.Fatalf("target %v", ps.TargetCapacity)
	}
	spec.PlanCalibrationCycles = 12345
	if got := spec.planSpec(spec.Base).CalibrationCycles; got != 12345 {
		t.Fatalf("explicit calibration window %d", got)
	}
}

// TestSweepScreenedRecovery pins recovery semantics: a journaled
// screened child stays screened after a restart — the planner's verdict
// is final, not re-litigated per process.
func TestSweepScreenedRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := newTestManager(t, Options{Workers: 2, Store: st})
	srv := httptest.NewServer(NewHandler(m1, nil))
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", strings.NewReader(plannerSweepBody))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var sw SweepStatus
	if err := json.Unmarshal(b, &sw); err != nil {
		t.Fatal(err)
	}
	waitSweepDone(t, m1, sw.ID)
	srv.Close()
	m1.Close()
	st.Close()

	st2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	m2 := newTestManager(t, Options{Workers: 2, Store: st2})
	got, ok := m2.Sweep(sw.ID)
	if !ok {
		t.Fatalf("sweep %s not recovered", sw.ID)
	}
	rst := m2.SweepStatus(got, true)
	if rst.Screened == 0 {
		t.Fatalf("screened children lost in recovery: %+v", rst)
	}
	for _, c := range rst.Children {
		if c.State != StateCompleted && c.State != StateScreened {
			t.Fatalf("recovered child %s in state %s", c.ID, c.State)
		}
	}
}

func waitSweepDone(t *testing.T, m *Manager, id string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		sw, ok := m.Sweep(id)
		if !ok {
			t.Fatalf("sweep %s missing", id)
		}
		if sw.State().Terminal() {
			if sw.State() != SweepCompleted {
				t.Fatalf("sweep ended %s", sw.State())
			}
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
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
		if _, ok := m.est.Lookup(key); !ok {
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
