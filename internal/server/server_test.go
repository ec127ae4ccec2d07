package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/jobstore"
)

// testBody is a small submission: a quick-sized config with short epochs
// so the run closes several of them, and the epoch table enabled so the
// report exercises the full schema.
const testBody = `{
  "config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 200000},
  "warmup_cycles": 100000,
  "measure_cycles": 700000,
  "epochs": true
}`

func newTestManager(t testing.TB, opts Options) *Manager {
	t.Helper()
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func postJob(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
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

func waitCompleted(t *testing.T, url, id string) JobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var jr JobResponse
		if err := json.Unmarshal(b, &jr); err != nil {
			t.Fatalf("poll %s: %v\n%s", id, err, b)
		}
		switch jr.State {
		case StateCompleted:
			return jr
		case StateFailed, StateCanceled:
			t.Fatalf("job %s ended %s: %s", id, jr.State, jr.Error)
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not complete", id)
	return JobResponse{}
}

// referenceReport runs the submission through core.RunWindow, the
// single-run procedure cmd/hybridsim uses, and renders it through the shared
// cliutil.RunReport — the byte-identical reference for the served job.
func referenceReport(t *testing.T, body string) []byte {
	t.Helper()
	req, err := DecodeJobRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	sys, err := req.Config.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.RunWindow(context.Background(), sys, req.Capacity, req.WarmupCycles, req.MeasureCycles, core.RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	opt := cliutil.RunReportOptions{CPthWinner: res.CPthWinner, Metrics: req.Metrics}
	if req.Epochs {
		opt.Epochs = res.Epochs
	}
	var buf bytes.Buffer
	if err := cliutil.RunReport(req.Config, res.Summary, opt).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestServerEndToEnd(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2, QueueDepth: 8})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	// Submit → 202 with a job ID.
	resp, body := postJob(t, srv.URL, testBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	// An idle worker may claim the job before the response is encoded, so
	// the submit can already read running.
	if st.ID == "" || (st.State != StateQueued && st.State != StateRunning) {
		t.Fatalf("submit status %+v", st)
	}
	if resp.Header.Get("Location") != "/v1/jobs/"+st.ID {
		t.Fatalf("Location %q", resp.Header.Get("Location"))
	}

	// Poll to completion; the served report must be byte-identical to the
	// shared-renderer reference (the cmd/hybridsim output path).
	jr := waitCompleted(t, srv.URL, st.ID)
	if jr.CacheHit {
		t.Fatal("first run reported a cache hit")
	}
	if jr.ProgressCycles != jr.TotalCycles || jr.TotalCycles != 800_000 {
		t.Fatalf("progress %d/%d", jr.ProgressCycles, jr.TotalCycles)
	}
	// The bare report endpoint must match the shared renderer byte for
	// byte; the envelope embeds the same report (modulo the envelope
	// encoder's re-indentation).
	want := referenceReport(t, testBody)
	rresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	served, _ := io.ReadAll(rresp.Body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d\n%s", rresp.StatusCode, served)
	}
	if !bytes.Equal(served, want) {
		t.Fatalf("served report differs from the hybridsim render:\n--- served ---\n%s\n--- want ---\n%s", served, want)
	}
	var embedded, reference bytes.Buffer
	if err := json.Compact(&embedded, jr.Report); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&reference, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(embedded.Bytes(), reference.Bytes()) {
		t.Fatalf("embedded report differs from the hybridsim render:\n%s", jr.Report)
	}

	// Epoch stream: all recorded epochs as NDJSON, at least 2.
	sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("epochs content type %q", ct)
	}
	var lines []map[string]json.RawMessage
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		var line map[string]json.RawMessage
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) < 2 {
		t.Fatalf("epoch stream returned %d lines, want >= 2", len(lines))
	}
	if jr.Epochs != len(lines) {
		t.Fatalf("status reports %d epochs, stream returned %d", jr.Epochs, len(lines))
	}
	for _, line := range lines {
		for _, key := range []string{"epoch", "cycles", "values"} {
			if _, ok := line[key]; !ok {
				t.Fatalf("epoch line missing %q: %v", key, line)
			}
		}
	}

	// Resubmitting the identical document is served from the cache: 200
	// (not 202), cache_hit set, same report bytes, no second simulation.
	resp2, body2 := postJob(t, srv.URL, testBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("resubmit: %d\n%s", resp2.StatusCode, body2)
	}
	var jr2 JobResponse
	if err := json.Unmarshal(body2, &jr2); err != nil {
		t.Fatal(err)
	}
	if !jr2.CacheHit || jr2.State != StateCompleted {
		t.Fatalf("resubmit not a completed cache hit: %+v", jr2.JobStatus)
	}
	rresp2, err := http.Get(srv.URL + "/v1/jobs/" + jr2.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	cachedReport, _ := io.ReadAll(rresp2.Body)
	rresp2.Body.Close()
	if !bytes.Equal(cachedReport, want) {
		t.Fatal("cached report differs from the original render")
	}
	snap := m.Registry().Snapshot()
	if got := snap.Counter("server.cache.hits"); got != 1 {
		t.Fatalf("cache hits = %d, want 1", got)
	}
	if got := snap.Counter("server.jobs.completed"); got != 1 {
		t.Fatalf("jobs completed = %d, want 1 (cache hit must not re-simulate)", got)
	}

	// The cached job's epoch stream serves the stored series.
	sresp2, err := http.Get(srv.URL + "/v1/jobs/" + jr2.ID + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	cached, err := io.ReadAll(sresp2.Body)
	sresp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(bytes.TrimSpace(cached), []byte("\n")) + 1; n != len(lines) {
		t.Fatalf("cached epoch stream has %d lines, want %d", n, len(lines))
	}

	// Content negotiation: text and CSV renders match the report sink.
	for _, tc := range []struct {
		accept string
		format string
	}{{"text/plain", "text"}, {"text/csv", "csv"}} {
		req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID, nil)
		req.Header.Set("Accept", tc.accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(b) == 0 {
			t.Fatalf("%s render: %d (%d bytes)", tc.format, resp.StatusCode, len(b))
		}
		if !bytes.Contains(b, []byte("mean_ipc")) {
			t.Fatalf("%s render missing mean_ipc:\n%s", tc.format, b)
		}
	}

	// Bad submissions are 400s with the offending field named.
	for _, bad := range []string{
		`{"config": {"no_such_knob": 1}}`,
		`{"config": {"policy": "NOPE"}}`,
		`{"measure_cycles": 0}`,
		`not json`,
	} {
		resp, body := postJob(t, srv.URL, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad body %q: %d\n%s", bad, resp.StatusCode, body)
		}
	}

	// Unknown job: 404.
	r404, err := http.Get(srv.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d", r404.StatusCode)
	}

	// /healthz and /metrics respond.
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzb, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK || !bytes.Contains(hzb, []byte(`"ok"`)) {
		t.Fatalf("healthz: %d %s", hz.StatusCode, hzb)
	}
	mx, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mxb, _ := io.ReadAll(mx.Body)
	mx.Body.Close()
	if !bytes.Contains(mxb, []byte("server.jobs.submitted")) {
		t.Fatalf("metrics output missing counters:\n%s", mxb)
	}
}

// TestLiveEpochStream follows a running job and must see epochs arrive
// before the job completes — the stream is live, not a post-hoc dump.
func TestLiveEpochStream(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 2})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	body := `{
	  "config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 100000},
	  "warmup_cycles": 0,
	  "measure_cycles": 3000000
	}`
	resp, b := postJob(t, srv.URL, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}

	sresp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	sawLive := false
	lines := 0
	for sc.Scan() {
		lines++
		if j, ok := m.Job(st.ID); ok && !j.State().Terminal() {
			sawLive = true
		}
	}
	if lines < 2 {
		t.Fatalf("stream returned %d lines", lines)
	}
	if !sawLive {
		t.Fatal("no epoch line arrived while the job was still running")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan string, 4)
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 1})
	m.beforeRun = func(j *Job) {
		entered <- j.ID()
		<-release
	}
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()
	defer close(release)

	// Job 1 occupies the single worker (held inside beforeRun), job 2
	// fills the queue, job 3 must bounce with 429 + Retry-After.
	resp1, b1 := postJob(t, srv.URL, testBody)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: %d\n%s", resp1.StatusCode, b1)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never claimed job 1")
	}
	resp2, b2 := postJob(t, srv.URL, testBody)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: %d\n%s", resp2.StatusCode, b2)
	}
	resp3, b3 := postJob(t, srv.URL, testBody)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: %d, want 429\n%s", resp3.StatusCode, b3)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := m.Registry().Snapshot().Counter("server.queue.rejects"); got != 1 {
		t.Fatalf("queue rejects = %d, want 1", got)
	}
}

// TestQueueDepthRefusesOnlyStandaloneSubmits pins the run queue's
// contract with the worker held: standalone submissions are accepted
// until QueueDepth jobs wait and refused after, with nothing journaled
// for the refusal, while a sweep with more children than QueueDepth is
// admitted in full without blocking its scheduler.
func TestQueueDepthRefusesOnlyStandaloneSubmits(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	entered := make(chan string, 7) // one per job the test submits
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 2, Store: openStore(t, dir)})
	m.beforeRun = func(j *Job) {
		entered <- j.ID()
		<-release
	}
	var freeOnce sync.Once
	free := func() { freeOnce.Do(func() { close(release) }) }
	defer free()
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	submit := func() error {
		req.Config.Seed++
		_, err := m.Submit(req)
		return err
	}

	// One job holds the worker; two more fill the queue; the fourth bounces.
	if err := submit(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never claimed job 1")
	}
	for i := 0; i < 2; i++ {
		if err := submit(); err != nil {
			t.Fatalf("job %d: %v", i+2, err)
		}
	}
	if err := submit(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("job 4: %v, want ErrQueueFull", err)
	}
	entries, err := jobstore.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 || len(m.Jobs()) != 3 {
		t.Fatalf("refusal left a trace: %d journal entries, %d jobs, want 3 and 3", len(entries), len(m.Jobs()))
	}

	// A four-child sweep enters the full queue anyway: every child waits.
	spec, err := DecodeSweepSpec([]byte(`{
	  "base": {"config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 200000},
	           "warmup_cycles": 50000, "measure_cycles": 200000},
	  "axes": [{"field": "cpth", "values": [20, 30, 40, 50]}],
	  "concurrency": 4
	}`))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); m.queueLen() != 6; {
		if time.Now().After(deadline) {
			t.Fatalf("queue holds %d jobs, want 2 standalone + 4 sweep children", m.queueLen())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := submit(); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("standalone submit behind the sweep: %v, want ErrQueueFull", err)
	}
	if got := m.Registry().Snapshot().Counter("server.queue.rejects"); got != 2 {
		t.Fatalf("queue rejects = %d, want 2", got)
	}
	free()
	for deadline := time.Now().Add(60 * time.Second); sw.State() != SweepCompleted; {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s", sw.State())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRequeueWhileDrainingCancels pins the drain side of the run queue:
// an attempt that fails transiently after the drain began is not pushed
// back for a retry no worker would take — the job ends canceled and
// Drain returns.
func TestRequeueWhileDrainingCancels(t *testing.T) {
	m := newTestManager(t, Options{
		Workers: 1, QueueDepth: 2,
		Retries: 2, RetryBackoff: backoffFast(),
	})
	entered := make(chan struct{})
	release := make(chan struct{})
	m.beforeAttempt = func(j *Job, attempt int) error {
		close(entered)
		<-release
		panic("injected transient fault")
	}
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(context.Background()) }()
	for !m.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("drain never returned")
	}
	if st := j.State(); st != StateCanceled || !errors.Is(j.Err(), ErrDraining) {
		t.Fatalf("job %v (%v), want canceled by the drain", st, j.Err())
	}
	if n := j.Attempts(); n != 1 {
		t.Fatalf("%d attempts, want 1", n)
	}
}

func TestSubmitValidatesBeforeQueueing(t *testing.T) {
	if _, err := DecodeJobRequest([]byte(`{"capacity": 1.5}`)); err == nil {
		t.Fatal("capacity > 1 accepted")
	}
	if _, err := DecodeJobRequest([]byte(`{"config": {"llc_sets": 0}}`)); err == nil {
		t.Fatal("zero-set LLC accepted")
	}
}

func TestCacheKeySemantics(t *testing.T) {
	base, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}

	render := base
	render.Epochs = !base.Epochs
	render.Metrics = !base.Metrics
	if render.CacheKey() != base.CacheKey() {
		t.Fatal("rendering options changed the cache key")
	}

	// shards 0 and 1 both name the sequential engine and keep the one
	// key they always shared.
	one := base
	one.Config.Shards = 1
	if one.CacheKey() != base.CacheKey() {
		t.Fatal("shards=1 and shards=0 hash differently")
	}

	seed := base
	seed.Config.Seed++
	if seed.CacheKey() == base.CacheKey() {
		t.Fatal("seed change kept the cache key")
	}
	window := base
	window.MeasureCycles++
	if window.CacheKey() == base.CacheKey() {
		t.Fatal("window change kept the cache key")
	}
}

// TestShardsRejectedOnEveryEndpoint pins that a request for the retired
// set-sharded engine fails at every HTTP entry point with a 400 that
// points at sweeps, the parallel path that remains.
func TestShardsRejectedOnEveryEndpoint(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()
	cases := []struct{ path, body string }{
		{"/v1/jobs", `{"config": {"shards": 4}}`},
		{"/v1/estimate", `{"config": {"shards": 4}}`},
		{"/v1/sweeps", `{"axes": [{"field": "shards", "values": [4]}]}`},
		{"/v1/sweeps", `{"base": {"config": {"shards": 4}}, "axes": [{"field": "cpth", "values": [30, 40]}]}`},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: status %d, want 400 (%s)", c.path, c.body, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), "/v1/sweeps") {
			t.Errorf("POST %s %s: error does not point at /v1/sweeps: %s", c.path, c.body, b)
		}
	}
	if n := len(m.Jobs()); n != 0 {
		t.Fatalf("%d jobs queued by rejected requests", n)
	}
}

// TestResubmitAtCompletionHitsCache resubmits each job's key from the
// status-poll loop the moment the job reads completed: the result must
// already be in the cache by then, so the resubmission is a hit rather
// than a second run.
func TestResubmitAtCompletionHitsCache(t *testing.T) {
	m := newTestManager(t, Options{Workers: 2, QueueDepth: 4})
	for i := 0; i < 16; i++ {
		req := DefaultJobRequest()
		req.Config = core.QuickConfig()
		req.Config.Seed = uint64(100 + i)
		req.WarmupCycles, req.MeasureCycles = 0, 20_000
		j, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		for !j.State().Terminal() {
			runtime.Gosched()
		}
		if st := j.State(); st != StateCompleted {
			t.Fatalf("job %s ended %s: %v", j.ID(), st, j.Err())
		}
		again, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Status().CacheHit {
			t.Fatalf("resubmission %d of a completed key missed the cache", i)
		}
	}
}

func TestGracefulDrain(t *testing.T) {
	before := runtime.NumGoroutine()

	m, err := NewManager(Options{Workers: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(m, nil))

	resp, b := postJob(t, srv.URL, testBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}

	// Graceful drain lets the in-flight job finish.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	j, ok := m.Job(st.ID)
	if !ok || j.State() != StateCompleted {
		t.Fatalf("after drain, job state = %v", j.State())
	}

	// Draining refuses new work with 503.
	resp2, b2 := postJob(t, srv.URL, testBody)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d\n%s", resp2.StatusCode, b2)
	}
	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hzb, _ := io.ReadAll(hz.Body)
	hz.Body.Close()
	if !bytes.Contains(hzb, []byte("draining")) {
		t.Fatalf("healthz while draining: %s", hzb)
	}

	srv.Close()
	m.Close()

	// No goroutine leaks once the manager and server are down.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(),
		buf[:runtime.Stack(buf, true)])
}

// TestDrainDeadlineCancelsInFlight pins the forced path: when the drain
// context expires, running jobs are canceled at an epoch boundary
// rather than run to completion, and Drain still waits for the workers
// to settle.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 2})

	req, err := DecodeJobRequest([]byte(`{
	  "config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 100000},
	  "warmup_cycles": 0,
	  "measure_cycles": 4000000000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain returned %v, want deadline exceeded", err)
	}
	if s := j.State(); s != StateCanceled {
		t.Fatalf("in-flight job state %v, want canceled", s)
	}
}

// TestPanickingJobFailsCleanly routes the fault-injection panic through
// the cliutil recover barrier: the job fails, the daemon survives. Task
// names are job IDs, so the env hook targets the first job precisely.
func TestPanickingJobFailsCleanly(t *testing.T) {
	t.Setenv(cliutil.PanicTaskEnv, "job-000001")
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 2})
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !j.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if j.State() != StateFailed {
		t.Fatalf("state %v, want failed", j.State())
	}
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("error %v does not record the panic", err)
	}
	// The worker survived: a follow-up job (different ID, hook does not
	// match) still completes.
	j2, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	for !j2.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("follow-up job never finished")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if j2.State() != StateCompleted {
		t.Fatalf("follow-up state %v: %v", j2.State(), j2.Err())
	}
}

// TestJobTimeout pins the per-job deadline: a run exceeding it fails
// with a timeout error instead of running forever.
func TestJobTimeout(t *testing.T) {
	m := newTestManager(t, Options{
		Workers: 1, QueueDepth: 2,
		JobTimeout: 200 * time.Millisecond,
	})
	req, err := DecodeJobRequest([]byte(`{
	  "config": {"llc_sets": 256, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 100000},
	  "warmup_cycles": 0,
	  "measure_cycles": 4000000000
	}`))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for !j.State().Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("job never timed out")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if j.State() != StateFailed {
		t.Fatalf("state %v, want failed", j.State())
	}
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("error %v does not mention the timeout", err)
	}
}

// TestManagerSubmitAfterDrainErrs covers the manager-level draining
// error (the HTTP 503 path's source).
func TestManagerSubmitAfterDrainErrs(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 1})
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(req); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain: %v, want ErrDraining", err)
	}
}

func TestSSEEpochStream(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 2})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	resp, b := postJob(t, srv.URL, testBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, srv.URL, st.ID)

	req, _ := http.NewRequest("GET", srv.URL+"/v1/jobs/"+st.ID+"/epochs", nil)
	req.Header.Set("Accept", "text/event-stream")
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(sresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(body, []byte("data: {")); n < 2 {
		t.Fatalf("SSE stream has %d data events, want >= 2\n%s", n, body)
	}
	if !bytes.Contains(body, []byte("event: done")) {
		t.Fatalf("SSE stream missing the done event:\n%s", body)
	}
}

func TestJobIDsSequential(t *testing.T) {
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 8})
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	req2 := req
	req2.Config.Seed++
	j2, err := m.Submit(req2)
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID() != "job-000001" || j2.ID() != "job-000002" {
		t.Fatalf("ids %q, %q", j1.ID(), j2.ID())
	}
}
