package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/fleet"
	"repro/internal/jobstore"
)

// leaseTestBody is a fast submission for lease-lifecycle tests.
const leaseTestBody = `{
  "config": {"llc_sets": 128, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 100000},
  "warmup_cycles": 50000,
  "measure_cycles": 200000
}`

// submitOne decodes and submits a request directly on the manager.
func submitOne(t *testing.T, m *Manager, body string) *Job {
	t.Helper()
	req, err := DecodeJobRequest([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// executeGrant runs a grant's request through the worker executor and
// returns the artifact bytes plus their digest.
func executeGrant(t *testing.T, g *fleet.Grant) ([]byte, string) {
	t.Helper()
	artifact, err := RunRequestArtifact(context.Background(), g.Request, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(artifact)
	return artifact, hex.EncodeToString(sum[:])
}

// TestLeaseLifecycleHTTPHappyPath drives acquire → heartbeat → complete
// over the real HTTP surface.
func TestLeaseLifecycleHTTPHappyPath(t *testing.T) {
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: 8})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	j := submitOne(t, m, leaseTestBody)

	// Acquire.
	resp, err := http.Post(srv.URL+"/v1/leases", "application/json",
		strings.NewReader(`{"worker_id":"w1","wait_millis":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acquire: %d %s", resp.StatusCode, body)
	}
	var g fleet.Grant
	if err := json.Unmarshal(body, &g); err != nil {
		t.Fatal(err)
	}
	if g.JobID != j.ID() || g.Token == "" || g.Attempt != 1 || g.CacheKey != j.CacheKey() {
		t.Fatalf("grant = %+v", g)
	}
	if st := j.Status(); st.State != StateRunning || st.Worker != "w1" {
		t.Fatalf("status after grant = %+v", st)
	}

	// The lease listing shows it.
	resp, err = http.Get(srv.URL + "/v1/leases")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var active []fleet.LeaseInfo
	if err := json.Unmarshal(body, &active); err != nil {
		t.Fatal(err)
	}
	if len(active) != 1 || active[0].Worker != "w1" || active[0].JobID != j.ID() {
		t.Fatalf("leases = %+v", active)
	}

	// Heartbeat with progress.
	resp, err = http.Post(srv.URL+"/v1/leases/"+g.Token+"/heartbeat", "application/json",
		strings.NewReader(`{"progress_cycles":100,"total_cycles":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat: %d", resp.StatusCode)
	}
	if st := j.Status(); st.ProgressCycles != 100 || st.TotalCycles != 1000 {
		t.Fatalf("progress not folded in: %+v", st)
	}

	// Complete with a real artifact.
	artifact, sha := executeGrant(t, &g)
	creq, _ := json.Marshal(fleet.CompleteRequest{Artifact: artifact, ArtifactSHA: sha})
	resp, err = http.Post(srv.URL+"/v1/leases/"+g.Token+"/complete", "application/json",
		strings.NewReader(string(creq)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("complete: %d %s", resp.StatusCode, body)
	}
	var cr fleet.CompleteResponse
	json.Unmarshal(body, &cr)
	if cr.Resolution != fleet.ResolutionCompleted || cr.JobID != j.ID() {
		t.Fatalf("complete response = %+v", cr)
	}
	if st := j.Status(); st.State != StateCompleted {
		t.Fatalf("job not completed: %+v", st)
	}
	if m.completed.Load() != 1 {
		t.Fatalf("completed counter = %d", m.completed.Load())
	}
	// A second completion on the dead token answers 410, not a rewrite.
	resp, err = http.Post(srv.URL+"/v1/leases/"+g.Token+"/complete", "application/json",
		strings.NewReader(string(creq)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("second complete: %d, want 410", resp.StatusCode)
	}
	if m.completed.Load() != 1 {
		t.Fatalf("completed counter drifted to %d", m.completed.Load())
	}
}

// TestLeaseExpiryRequeuesForSecondWorker kills the first worker (by
// never heartbeating) and checks the job requeues, a second worker
// completes it, and the revived first worker's late upload is refused
// without disturbing the single journaled terminal state.
func TestLeaseExpiryRequeuesForSecondWorker(t *testing.T) {
	dir := t.TempDir()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: NoCache,
		Store: store, LeaseTTL: 150 * time.Millisecond})

	j := submitOne(t, m, leaseTestBody)
	g1, err := m.AcquireLease(context.Background(), "w1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Run the job before the hand-over: the artifact is a pure function
	// of the request, and w2 below must upload within its own 150 ms
	// lease, which a simulation under -race can outlast.
	artifact, sha := executeGrant(t, g1)
	// w1 goes silent; the lease expires and the job is requeued.
	deadline := time.Now().Add(10 * time.Second)
	var g2 *fleet.Grant
	for g2 == nil {
		if time.Now().After(deadline) {
			t.Fatal("job never requeued after lease expiry")
		}
		g2, err = m.AcquireLease(context.Background(), "w2", 200*time.Millisecond)
		if err != nil && !errors.Is(err, ErrNoWork) {
			t.Fatal(err)
		}
	}
	if g2.JobID != j.ID() || g2.Attempt != 2 || g2.Token == g1.Token {
		t.Fatalf("second grant = %+v", g2)
	}
	if m.leasesRequeued.Load() != 1 {
		t.Fatalf("requeued counter = %d", m.leasesRequeued.Load())
	}
	if s := m.leases.Stats(); s.Expired != 1 {
		t.Fatalf("expired stat = %d", s.Expired)
	}

	// w2 completes.
	cr, err := m.CompleteLease(g2.Token, fleet.CompleteRequest{Artifact: artifact, ArtifactSHA: sha})
	if err != nil || cr.Resolution != fleet.ResolutionCompleted {
		t.Fatalf("w2 complete = %+v, %v", cr, err)
	}
	if st := j.Status(); st.State != StateCompleted || st.Worker != "w2" {
		t.Fatalf("status = %+v", st)
	}

	// The revived w1 uploads the identical bytes on its expired lease:
	// refused as gone, nothing double-counted.
	if _, err := m.CompleteLease(g1.Token, fleet.CompleteRequest{Artifact: artifact, ArtifactSHA: sha}); !errors.Is(err, fleet.ErrLeaseGone) {
		t.Fatalf("revived upload: %v, want ErrLeaseGone", err)
	}
	if m.completed.Load() != 1 || m.failed.Load() != 0 {
		t.Fatalf("counters completed=%d failed=%d", m.completed.Load(), m.failed.Load())
	}

	// Exactly one journaled terminal state, with the artifact digest.
	entries, err := jobstore.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	terminal := 0
	for _, e := range entries {
		if e.ID != j.ID() {
			continue
		}
		if JobState(e.State).Terminal() {
			terminal++
			if e.State != string(StateCompleted) || e.ArtifactSHA == "" || e.Worker != "w2" {
				t.Fatalf("terminal entry = %+v", e)
			}
		}
	}
	if terminal != 1 {
		t.Fatalf("journal has %d terminal entries, want exactly 1", terminal)
	}
	// And the stored artifact hash-verifies against the upload.
	data, ok, err := store.GetArtifact(j.CacheKey(), sha)
	if err != nil || !ok || string(data) != string(artifact) {
		t.Fatalf("stored artifact ok=%v err=%v match=%v", ok, err, string(data) == string(artifact))
	}
}

// TestCompletionCachedBeforeTerminal is the deterministic guard on the
// publication order: from inside the onTerminal hook — the instant a
// job's state turns terminal — the cache must already hold the job's
// key and the store its artifact, for a local pool completion and for a
// CompleteLease completion alike.
func TestCompletionCachedBeforeTerminal(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
	}{{"local", 1}, {"lease", -1}} {
		t.Run(tc.name, func(t *testing.T) {
			st := openStore(t, t.TempDir())
			m := newTestManager(t, Options{Workers: tc.workers, QueueDepth: 4, CacheSize: 8, Store: st})
			type seen struct {
				id             string
				cached, stored bool
			}
			obs := make(chan seen, 1)
			m.onTerminal = func(j *Job) {
				_, cached := m.cache.get(j.cacheKey)
				obs <- seen{j.id, cached, st.HasArtifact(j.cacheKey)}
			}
			j := submitOne(t, m, leaseTestBody)
			if tc.workers < 0 {
				g, err := m.AcquireLease(context.Background(), "w1", time.Second)
				if err != nil {
					t.Fatal(err)
				}
				artifact, sha := executeGrant(t, g)
				resp, err := m.CompleteLease(g.Token, fleet.CompleteRequest{Artifact: artifact, ArtifactSHA: sha})
				if err != nil || resp.Resolution != fleet.ResolutionCompleted {
					t.Fatalf("complete: %q, %v", resp.Resolution, err)
				}
			}
			var o seen
			select {
			case o = <-obs:
			case <-time.After(30 * time.Second):
				t.Fatal("job never turned terminal")
			}
			if j.State() != StateCompleted {
				t.Fatalf("job %s (%v)", j.State(), j.Err())
			}
			if o.id != j.ID() || !o.cached || !o.stored {
				t.Fatalf("at the terminal transition of %s: cached=%v stored=%v", o.id, o.cached, o.stored)
			}
		})
	}
}

// TestDuplicateCompletionIdempotent exercises the revived-worker race
// on the ingestion path itself: a verified upload for a job that
// reached its terminal state a moment earlier is resolved as a
// duplicate by hash — no second count, no second journal entry.
func TestDuplicateCompletionIdempotent(t *testing.T) {
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: NoCache})
	j := submitOne(t, m, leaseTestBody)
	g, err := m.AcquireLease(context.Background(), "w1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	artifact, sha := executeGrant(t, g)
	res, key, err := decodeResult(artifact)
	if err != nil || key != j.CacheKey() {
		t.Fatal(err)
	}

	// The requeued copy of the job completed first (simulated directly:
	// this is the window between Peek and Resolve in CompleteLease).
	if !j.finish(StateCompleted, res, nil) {
		t.Fatal("setup finish failed")
	}
	resp, err := m.CompleteLease(g.Token, fleet.CompleteRequest{Artifact: artifact, ArtifactSHA: sha})
	if err != nil || resp.Resolution != fleet.ResolutionDuplicate {
		t.Fatalf("resolution = %q (err %v), want duplicate", resp.Resolution, err)
	}
	if m.leasesDup.Load() != 1 || m.completed.Load() != 0 {
		t.Fatalf("dup=%d completed=%d", m.leasesDup.Load(), m.completed.Load())
	}
}

// TestCorruptArtifactRejectedWithoutPoisoning uploads garbage, a
// hash-mismatched body, and a wrong-key artifact; each is refused with
// the lease left active, and the honest retry then completes the job.
func TestCorruptArtifactRejectedWithoutPoisoning(t *testing.T) {
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: NoCache})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	j := submitOne(t, m, leaseTestBody)
	g, err := m.AcquireLease(context.Background(), "w1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	artifact, sha := executeGrant(t, g)

	post := func(req fleet.CompleteRequest) (int, string) {
		blob, _ := json.Marshal(req)
		resp, err := http.Post(srv.URL+"/v1/leases/"+g.Token+"/complete", "application/json",
			strings.NewReader(string(blob)))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}

	garbage := []byte(`{"not":"an artifact"}`)
	gsum := sha256.Sum256(garbage)
	res, _, err := decodeResult(artifact)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := encodeResult("another-key", res)
	if err != nil {
		t.Fatal(err)
	}
	fsum := sha256.Sum256(foreign)
	cases := []fleet.CompleteRequest{
		// Declared hash does not match the bytes (bit rot in transit).
		{Artifact: artifact, ArtifactSHA: "deadbeef"},
		// Hash matches but the bytes are not a decodable artifact.
		{Artifact: garbage, ArtifactSHA: hex.EncodeToString(gsum[:])},
		// Hash and codec match, but the artifact is another request's.
		{Artifact: foreign, ArtifactSHA: hex.EncodeToString(fsum[:])},
	}
	for i, c := range cases {
		status, body := post(c)
		if status != http.StatusBadRequest {
			t.Fatalf("case %d: status %d (%s), want 400", i, status, body)
		}
		if _, state := m.leases.Peek(g.Token); state != fleet.TokenActive {
			t.Fatalf("case %d poisoned the lease: %v", i, state)
		}
		if st := j.State(); st != StateRunning {
			t.Fatalf("case %d poisoned the job: %v", i, st)
		}
	}

	// The honest upload still lands on the same lease.
	status, body := post(fleet.CompleteRequest{Artifact: artifact, ArtifactSHA: sha})
	if status != http.StatusOK || !strings.Contains(body, fleet.ResolutionCompleted) {
		t.Fatalf("honest retry: %d %s", status, body)
	}
	if st := j.State(); st != StateCompleted {
		t.Fatalf("job = %v", st)
	}
	if m.failed.Load() != 0 {
		t.Fatalf("failed counter = %d", m.failed.Load())
	}
}

// TestRemoteTransientFailureSharesRetryPath checks a worker-reported
// transient failure rides the same requeue path as local retries: the
// retried counter moves, the job requeues with attempt 2, and
// exhaustion fails it terminally.
func TestRemoteTransientFailureSharesRetryPath(t *testing.T) {
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: NoCache,
		Retries: 1, RetryBackoff: cliutil.Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond}})
	j := submitOne(t, m, leaseTestBody)

	g1, err := m.AcquireLease(context.Background(), "w1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := m.CompleteLease(g1.Token, fleet.CompleteRequest{Error: "engine panic", Transient: true})
	if err != nil || cr.Resolution != fleet.ResolutionRequeued {
		t.Fatalf("first failure = %+v, %v", cr, err)
	}
	if m.retried.Load() != 1 {
		t.Fatalf("retried counter = %d", m.retried.Load())
	}

	var g2 *fleet.Grant
	deadline := time.Now().Add(10 * time.Second)
	for g2 == nil {
		if time.Now().After(deadline) {
			t.Fatal("retry never requeued")
		}
		g2, err = m.AcquireLease(context.Background(), "w2", 100*time.Millisecond)
		if err != nil && !errors.Is(err, ErrNoWork) {
			t.Fatal(err)
		}
	}
	if g2.Attempt != 2 {
		t.Fatalf("attempt = %d, want 2", g2.Attempt)
	}
	// Budget exhausted: the next transient failure is terminal.
	cr, err = m.CompleteLease(g2.Token, fleet.CompleteRequest{Error: "engine panic", Transient: true})
	if err != nil || cr.Resolution != fleet.ResolutionFailed {
		t.Fatalf("second failure = %+v, %v", cr, err)
	}
	if st := j.Status(); st.State != StateFailed || !strings.Contains(st.Error, "engine panic") {
		t.Fatalf("status = %+v", st)
	}
	if m.retried.Load() != 1 || m.failed.Load() != 1 {
		t.Fatalf("retried=%d failed=%d", m.retried.Load(), m.failed.Load())
	}
}

// TestByteIdentityAcrossPlacement is the placement acceptance check:
// the same config run locally on one coordinator and via a remote
// worker lease on another produces the same content address and
// byte-identical stored artifacts.
func TestByteIdentityAcrossPlacement(t *testing.T) {
	// (a) Local execution on a coordinator's own pool.
	localDir := t.TempDir()
	localStore, err := jobstore.Open(localDir)
	if err != nil {
		t.Fatal(err)
	}
	defer localStore.Close()
	mLocal := newTestManager(t, Options{Workers: 2, QueueDepth: 8, CacheSize: NoCache, Store: localStore})
	jLocal := submitOne(t, mLocal, leaseTestBody)
	jLocal.awaitTerminal()
	if jLocal.State() != StateCompleted {
		t.Fatalf("local job: %v (%v)", jLocal.State(), jLocal.Err())
	}

	// (b) Remote execution through a real fleet.Worker over HTTP.
	remoteDir := t.TempDir()
	remoteStore, err := jobstore.Open(remoteDir)
	if err != nil {
		t.Fatal(err)
	}
	defer remoteStore.Close()
	mRemote := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: NoCache, Store: remoteStore})
	srv := httptest.NewServer(NewHandler(mRemote, nil))
	defer srv.Close()
	jRemote := submitOne(t, mRemote, leaseTestBody)

	w := &fleet.Worker{
		ID:          "placement-worker",
		Client:      &cliutil.HTTPClient{Base: srv.URL, Backoff: cliutil.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond}},
		Execute:     RunRequestArtifact,
		AcquireWait: 500 * time.Millisecond,
		Backoff:     cliutil.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
	}
	wctx, wcancel := context.WithCancel(context.Background())
	wdone := make(chan error, 1)
	go func() { wdone <- w.Run(wctx, context.Background()) }()
	jRemote.awaitTerminal()
	wcancel()
	if err := <-wdone; err != nil {
		t.Fatal(err)
	}
	if jRemote.State() != StateCompleted {
		t.Fatalf("remote job: %v (%v)", jRemote.State(), jRemote.Err())
	}

	// Same content address, byte-identical artifacts.
	if jLocal.CacheKey() != jRemote.CacheKey() {
		t.Fatalf("cache keys differ: %s vs %s", jLocal.CacheKey(), jRemote.CacheKey())
	}
	a, ok, err := localStore.GetArtifact(jLocal.CacheKey(), "")
	if err != nil || !ok {
		t.Fatalf("local artifact: ok=%v err=%v", ok, err)
	}
	b, ok, err := remoteStore.GetArtifact(jRemote.CacheKey(), "")
	if err != nil || !ok {
		t.Fatalf("remote artifact: ok=%v err=%v", ok, err)
	}
	if string(a) != string(b) {
		t.Fatalf("artifacts differ across placement: %d vs %d bytes", len(a), len(b))
	}
	if st := jRemote.Status(); st.Worker != "placement-worker" {
		t.Fatalf("remote status = %+v", st)
	}
}

// TestFleetSweepAcrossWorkers fans a sweep out over two real workers
// sharing one remote-only coordinator.
func TestFleetSweepAcrossWorkers(t *testing.T) {
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 16, CacheSize: NoCache})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	sweepBody := `{
	  "name": "fleet-fanout",
	  "base": {"config": {"llc_sets": 128, "scale": 0.15, "l2_size_kb": 64, "epoch_cycles": 100000},
	           "warmup_cycles": 50000, "measure_cycles": 200000},
	  "axes": [{"field": "cpth", "values": [20, 30, 40]}],
	  "concurrency": 3
	}`
	spec, err := DecodeSweepSpec([]byte(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := m.SubmitSweep(spec)
	if err != nil {
		t.Fatal(err)
	}

	var cancels []context.CancelFunc
	var dones []chan error
	for _, id := range []string{"wA", "wB"} {
		w := &fleet.Worker{
			ID:          id,
			Client:      &cliutil.HTTPClient{Base: srv.URL, Backoff: cliutil.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond}},
			Execute:     RunRequestArtifact,
			AcquireWait: 500 * time.Millisecond,
			Backoff:     cliutil.Backoff{Base: time.Millisecond, Max: 10 * time.Millisecond},
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx, context.Background()) }()
		cancels = append(cancels, cancel)
		dones = append(dones, done)
	}

	deadline := time.Now().Add(60 * time.Second)
	for sw.State() == SweepRunning {
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck: %+v", m.SweepStatus(sw, true))
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, c := range cancels {
		c()
	}
	for _, d := range dones {
		if err := <-d; err != nil {
			t.Fatal(err)
		}
	}
	st := m.SweepStatus(sw, true)
	if st.State != SweepCompleted || st.Completed != 3 {
		t.Fatalf("sweep = %+v", st)
	}
	workers := map[string]bool{}
	for _, id := range sw.Children() {
		j, _ := m.Job(id)
		status := j.Status()
		if status.Worker == "" {
			t.Fatalf("child %s has no worker: %+v", id, status)
		}
		workers[status.Worker] = true
	}
	if s := m.leases.Stats(); s.Granted < 3 || s.Completed < 3 {
		t.Fatalf("lease stats = %+v", s)
	}
	t.Logf("children ran on workers: %v", workers)
}

// TestLeasedJobRecoveredAfterRestart journals a lease grant, kills the
// coordinator without resolution, and checks a restart over the same
// store re-runs the job to completion — "leased" reads as interrupted.
func TestLeasedJobRecoveredAfterRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewManager(Options{Workers: -1, QueueDepth: 8, CacheSize: NoCache, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	j1 := submitOne(t, m1, leaseTestBody)
	if _, err := m1.AcquireLease(context.Background(), "w1", time.Second); err != nil {
		t.Fatal(err)
	}
	// Coordinator dies with the lease outstanding.
	m1.Close()
	store.Close()

	store2, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	m2 := newTestManager(t, Options{Workers: 2, QueueDepth: 8, CacheSize: NoCache, Store: store2})
	j2, ok := m2.Job(j1.ID())
	if !ok {
		t.Fatalf("job %s not recovered", j1.ID())
	}
	j2.awaitTerminal()
	if j2.State() != StateCompleted {
		t.Fatalf("recovered job = %v (%v)", j2.State(), j2.Err())
	}
	if st := j2.Status(); !st.Recovered {
		t.Fatalf("status = %+v", st)
	}
}

// TestMetricsPrometheusExposition checks content negotiation and the
// exposition grammar, fleet gauges included.
func TestMetricsPrometheusExposition(t *testing.T) {
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: 8})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain; version=0.0.4")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"simd_fleet_leases_active",
		"simd_fleet_leases_expired",
		"simd_fleet_leases_requeued",
		"simd_fleet_workers_connected",
		"simd_server_jobs_completed",
	} {
		if !strings.Contains(text, "\n"+want+" ") && !strings.HasPrefix(text, want+" ") {
			t.Errorf("exposition missing %s", want)
		}
	}
	sample := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]* (NaN|[+-]Inf|[0-9.eE+-]+)$`)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !sample.MatchString(line) {
			t.Fatalf("unparseable sample line %q", line)
		}
	}

	// Without the versioned Accept header the old text table remains.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(body), "# HELP") {
		t.Fatal("default /metrics switched to Prometheus format")
	}

	// ?format=prometheus also selects the exposition.
	resp, err = http.Get(srv.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# TYPE simd_fleet_leases_active gauge") {
		t.Fatalf("format=prometheus: %s", body)
	}
}

// TestAcquireNoWorkAndDraining pins the 204 and 503 answers.
func TestAcquireNoWorkAndDraining(t *testing.T) {
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: 8})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/leases", "application/json",
		strings.NewReader(`{"worker_id":"w1","wait_millis":10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("idle acquire: %d, want 204", resp.StatusCode)
	}
	if g := m.Registry().Snapshot().Gauges["fleet.workers.connected"]; g != 1 {
		t.Fatalf("workers connected = %v, want 1", g)
	}

	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(srv.URL+"/v1/leases", "application/json",
		strings.NewReader(`{"worker_id":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining acquire: %d, want 503", resp.StatusCode)
	}
}

// TestRemoteOnlyDrainCancelsQueued checks a remote-only coordinator's
// drain does not hang on queued jobs no one will ever lease.
func TestRemoteOnlyDrainCancelsQueued(t *testing.T) {
	m := newTestManager(t, Options{Workers: -1, QueueDepth: 8, CacheSize: NoCache})
	j := submitOne(t, m, leaseTestBody)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := j.State(); st != StateCanceled {
		t.Fatalf("queued job after drain = %v", st)
	}
}
