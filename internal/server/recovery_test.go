package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/jobstore"
)

func openStore(t *testing.T, dir string) *jobstore.Store {
	t.Helper()
	st, err := jobstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func getReport(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report %s: %d\n%s", id, resp.StatusCode, b)
	}
	return b
}

// TestRecoveryServesCompletedFromArtifacts is the basic restart
// invariant: a fresh manager over a data directory a previous manager
// wrote serves that manager's completed jobs — same IDs, byte-identical
// reports — without re-running anything, and its in-memory cache is
// warm (a resubmission of the same config is a cache hit).
func TestRecoveryServesCompletedFromArtifacts(t *testing.T) {
	dir := t.TempDir()
	variant := strings.Replace(testBody, `"epoch_cycles": 200000`, `"epoch_cycles": 150000`, 1)

	st1 := openStore(t, dir)
	m1, err := NewManager(Options{Workers: 2, QueueDepth: 8, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewHandler(m1, nil))
	var ids []string
	var reports [][]byte
	for _, body := range []string{testBody, variant} {
		resp, b := postJob(t, srv1.URL, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d\n%s", resp.StatusCode, b)
		}
		var jst JobStatus
		if err := json.Unmarshal(b, &jst); err != nil {
			t.Fatal(err)
		}
		waitCompleted(t, srv1.URL, jst.ID)
		ids = append(ids, jst.ID)
		reports = append(reports, getReport(t, srv1.URL, jst.ID))
	}
	srv1.Close()
	m1.Close()
	st1.Close()

	// A new process over the same directory.
	st2 := openStore(t, dir)
	m2, err := NewManager(Options{Workers: 2, QueueDepth: 8, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	srv2 := httptest.NewServer(NewHandler(m2, nil))
	defer srv2.Close()

	snap := m2.Registry().Snapshot()
	if got := snap.Counters["server.jobs.recovered"]; got != 2 {
		t.Fatalf("recovered counter %d, want 2", got)
	}
	for i, id := range ids {
		j, ok := m2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		jst := j.Status()
		if jst.State != StateCompleted || !jst.Recovered || !jst.CacheHit {
			t.Fatalf("recovered job %s: %+v", id, jst)
		}
		if got := getReport(t, srv2.URL, id); !bytes.Equal(got, reports[i]) {
			t.Fatalf("job %s report changed across restart:\n%s\n---\n%s", id, reports[i], got)
		}
	}

	// The recovered artifacts warmed the in-memory cache.
	resp, b := postJob(t, srv2.URL, testBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmission status %d (want 200 cache hit)\n%s", resp.StatusCode, b)
	}
	var jst JobStatus
	if err := json.Unmarshal(b, &jst); err != nil {
		t.Fatal(err)
	}
	if !jst.CacheHit {
		t.Fatal("resubmission missed the recovered cache")
	}
}

// TestRecoveryRerunsInterruptedJob hand-builds a journal whose job never
// finished (the daemon died while it ran) plus one that failed for
// good: the restart re-executes the first from its recorded request —
// producing the same artifact a live run would — and leaves the second
// failed.
func TestRecoveryRerunsInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	reqBlob, _ := json.Marshal(req)
	must := func(e jobstore.Entry) {
		t.Helper()
		if err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	must(jobstore.Entry{Kind: jobstore.KindJob, ID: "job-000001", State: string(StateQueued),
		CacheKey: req.CacheKey(), Request: reqBlob})
	must(jobstore.Entry{Kind: jobstore.KindJob, ID: "job-000001", State: string(StateRunning)})
	// Journals written before checkpoints were retired hold progress
	// lines; one must replay as a non-terminal state that re-runs.
	journal, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := journal.WriteString(`{"ts":"2026-01-01T00:00:00Z","kind":"job","id":"job-000001","state":"checkpoint","progress":250000,"total":800000}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}
	must(jobstore.Entry{Kind: jobstore.KindJob, ID: "job-000002", State: string(StateQueued),
		CacheKey: "deadbeef", Request: reqBlob})
	must(jobstore.Entry{Kind: jobstore.KindJob, ID: "job-000002", State: string(StateFailed),
		Error: "synthetic permanent failure"})

	m, err := NewManager(Options{Workers: 2, QueueDepth: 8, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	j, ok := m.Job("job-000001")
	if !ok {
		t.Fatal("interrupted job not recovered")
	}
	j.awaitTerminal()
	jst := j.Status()
	if jst.State != StateCompleted || !jst.Recovered {
		t.Fatalf("re-run job: %+v (%v)", jst, j.Err())
	}
	if jst.CacheHit {
		t.Fatal("re-run job claims a cache hit; it must have executed")
	}
	if !st.HasArtifact(req.CacheKey()) {
		t.Fatal("re-run did not write its artifact")
	}
	// The re-run's artifact matches a from-scratch run of the same
	// request bit for bit (determinism makes re-execution ≡ resumption).
	blob, _, err := st.GetArtifact(req.CacheKey(), "")
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := decodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := encodeResult(req.CacheKey(), res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, fresh) {
		t.Fatal("artifact bytes are not canonical")
	}

	jf, ok := m.Job("job-000002")
	if !ok {
		t.Fatal("failed job not recovered")
	}
	if jf.State() != StateFailed {
		t.Fatalf("failed job re-ran into %s", jf.State())
	}
	if err := jf.Err(); err == nil || !strings.Contains(err.Error(), "synthetic") {
		t.Fatalf("failed job lost its error: %v", err)
	}

	// ID sequence resumes past the recovered jobs.
	j3, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID() != "job-000003" {
		t.Fatalf("post-recovery ID %s, want job-000003", j3.ID())
	}
}

// TestRecoveryRerunsArtifactOfAnotherKey boots over a completion
// journaled without a digest — the form a cache-hit submission writes —
// whose artifact file holds bytes encoded for another cache key. The
// store cannot hash-check it, so recovery must check the embedded key
// and re-run the job rather than serve another request's result.
func TestRecoveryRerunsArtifactOfAnotherKey(t *testing.T) {
	dir := t.TempDir()
	req, err := DecodeJobRequest([]byte(leaseTestBody))
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	foreign, err := encodeResult("another-key", &Result{CPthWinner: -1, Summary: core.Summary{Policy: "FOREIGN"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutArtifact(req.CacheKey(), foreign); err != nil {
		t.Fatal(err)
	}
	reqBlob, _ := json.Marshal(req)
	if err := st.Append(jobstore.Entry{Kind: jobstore.KindJob, ID: "job-000001",
		State: string(StateCompleted), CacheKey: req.CacheKey(), Request: reqBlob}); err != nil {
		t.Fatal(err)
	}

	m, err := NewManager(Options{Workers: 1, QueueDepth: 4, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	j, ok := m.Job("job-000001")
	if !ok {
		t.Fatal("job not recovered")
	}
	j.awaitTerminal()
	if st := j.Status(); st.State != StateCompleted || st.CacheHit {
		t.Fatalf("recovered job %+v (%v), want a completed re-run", st, j.Err())
	}
	if got := j.Result().Summary.Policy; got != req.Config.PolicyName {
		t.Fatalf("served policy %q, want a re-run of %q", got, req.Config.PolicyName)
	}
}

// TestRecoveryReplacesForeignArtifact boots twice over a store whose
// completed job's artifact belongs to another key. The first boot
// re-runs the job and must replace the foreign file; the second must
// then serve the job from its artifact at boot, without running it.
func TestRecoveryReplacesForeignArtifact(t *testing.T) {
	dir := t.TempDir()
	req, err := DecodeJobRequest([]byte(leaseTestBody))
	if err != nil {
		t.Fatal(err)
	}
	st1 := openStore(t, dir)
	foreign, err := encodeResult("another-key", &Result{CPthWinner: -1, Summary: core.Summary{Policy: "FOREIGN"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st1.PutArtifact(req.CacheKey(), foreign); err != nil {
		t.Fatal(err)
	}
	reqBlob, _ := json.Marshal(req)
	if err := st1.Append(jobstore.Entry{Kind: jobstore.KindJob, ID: "job-000001",
		State: string(StateCompleted), CacheKey: req.CacheKey(), Request: reqBlob}); err != nil {
		t.Fatal(err)
	}

	m1, err := NewManager(Options{Workers: 1, QueueDepth: 4, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	j1, ok := m1.Job("job-000001")
	if !ok {
		t.Fatal("job not recovered on the first boot")
	}
	j1.awaitTerminal()
	if st := j1.Status(); st.State != StateCompleted || st.CacheHit {
		t.Fatalf("first boot: %+v (%v), want a completed re-run", st, j1.Err())
	}
	m1.Close()
	st1.Close()

	m2, err := NewManager(Options{Workers: 1, QueueDepth: 4, Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	j2, ok := m2.Job("job-000001")
	if !ok {
		t.Fatal("job not recovered on the second boot")
	}
	if st := j2.Status(); st.State != StateCompleted || !st.CacheHit {
		t.Fatalf("second boot: %+v (%v), want the job served from its artifact", st, j2.Err())
	}
	if got := j2.Result().Summary.Policy; got != req.Config.PolicyName {
		t.Fatalf("second boot served policy %q, want %q", got, req.Config.PolicyName)
	}
	if n := m2.completed.Load(); n != 0 {
		t.Fatalf("second boot ran %d jobs, want 0", n)
	}
}

// TestRecoveryFailsRetiredEngineJobs boots over a journal written while
// the set-sharded engine, the RRIP-family policies and the xor and
// rotate colorings existed: one "shards":2 job completed (its artifact
// on disk) and one still queued, a completed SRRIP job and a queued
// TOURNAMENT job with its bracket, a completed xor job and a queued
// rotate job, next to two classic jobs. Boot must succeed; each retired
// job reads failed with an unrecoverable reason naming the retired
// field, policy or scheme, and the classic jobs are served as before.
func TestRecoveryFailsRetiredEngineJobs(t *testing.T) {
	dir := t.TempDir()
	classic, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	rerun := classic
	rerun.Config.Seed++
	engine := classic
	engine.Config.Shards = 2
	classicBlob, _ := json.Marshal(classic)
	rerunBlob, _ := json.Marshal(rerun)
	engineBlob, _ := json.Marshal(engine)
	engineKey := strings.Repeat("e", 64) // the old engine-kind content address
	// The retired policies' and colorings' requests no longer have a Go
	// shape: write them as the journal held them.
	retired := func(policy string, extra map[string]any) []byte {
		var doc map[string]any
		if err := json.Unmarshal(classicBlob, &doc); err != nil {
			t.Fatal(err)
		}
		cfg := doc["config"].(map[string]any)
		cfg["policy"] = policy
		for k, v := range extra {
			cfg[k] = v
		}
		blob, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	srripBlob := retired("SRRIP", nil)
	tournamentBlob := retired("TOURNAMENT", map[string]any{"tournament": map[string]any{
		"candidates": []any{map[string]any{"policy": "CA_RWR"}, map[string]any{"policy": "SRRIP"}},
	}})
	srripKey, tournamentKey := strings.Repeat("5", 64), strings.Repeat("7", 64)
	classicPolicy := classic.Config.PolicyName
	xorBlob := retired(classicPolicy, map[string]any{"coloring": map[string]any{"scheme": "xor", "mask": 21}})
	rotateBlob := retired(classicPolicy, map[string]any{"coloring": map[string]any{
		"scheme": "rotate", "interval_epochs": 4, "step": 37,
	}})
	xorKey, rotateKey := strings.Repeat("8", 64), strings.Repeat("9", 64)

	artifact, err := RunRequestArtifact(context.Background(), classicBlob, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	classicSHA, err := st.PutArtifact(classic.CacheKey(), artifact)
	if err != nil {
		t.Fatal(err)
	}
	engineSHA, err := st.PutArtifact(engineKey, artifact)
	if err != nil {
		t.Fatal(err)
	}
	srripSHA, err := st.PutArtifact(srripKey, artifact)
	if err != nil {
		t.Fatal(err)
	}
	xorSHA, err := st.PutArtifact(xorKey, artifact)
	if err != nil {
		t.Fatal(err)
	}
	must := func(e jobstore.Entry) {
		t.Helper()
		if err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	job := func(id, state, key string, req []byte, sha string) {
		must(jobstore.Entry{Kind: jobstore.KindJob, ID: id, State: state,
			CacheKey: key, Request: req, ArtifactSHA: sha})
	}
	job("job-000001", string(StateQueued), engineKey, engineBlob, "")
	job("job-000001", string(StateCompleted), engineKey, nil, engineSHA)
	job("job-000002", string(StateQueued), engineKey, engineBlob, "")
	job("job-000003", string(StateQueued), classic.CacheKey(), classicBlob, "")
	job("job-000003", string(StateCompleted), classic.CacheKey(), nil, classicSHA)
	job("job-000004", string(StateQueued), rerun.CacheKey(), rerunBlob, "")
	job("job-000005", string(StateQueued), srripKey, srripBlob, "")
	job("job-000005", string(StateCompleted), srripKey, nil, srripSHA)
	job("job-000006", string(StateQueued), tournamentKey, tournamentBlob, "")
	job("job-000007", string(StateQueued), xorKey, xorBlob, "")
	job("job-000007", string(StateCompleted), xorKey, nil, xorSHA)
	job("job-000008", string(StateQueued), rotateKey, rotateBlob, "")

	m, err := NewManager(Options{Workers: 2, QueueDepth: 8, Store: st})
	if err != nil {
		t.Fatalf("boot refused over a journal with engine jobs: %v", err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	for _, tc := range []struct{ id, names string }{
		{"job-000001", "shards"}, {"job-000002", "shards"},
		{"job-000005", "SRRIP"}, {"job-000006", "tournament"},
		{"job-000007", `"xor"`}, {"job-000008", `"rotate"`},
	} {
		id := tc.id
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var jr JobResponse
		err = json.NewDecoder(resp.Body).Decode(&jr)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if jr.State != StateFailed || !strings.Contains(jr.Error, "unrecoverable") || !strings.Contains(jr.Error, tc.names) {
			t.Fatalf("retired job %s: state %s, error %q; want failed, unrecoverable: … %s", id, jr.State, jr.Error, tc.names)
		}
	}

	j3, ok := m.Job("job-000003")
	if !ok {
		t.Fatal("classic completed job lost")
	}
	if s3 := j3.Status(); s3.State != StateCompleted || !s3.CacheHit || !s3.Recovered {
		t.Fatalf("classic completed job: %+v", s3)
	}
	getReport(t, srv.URL, "job-000003")
	j4, ok := m.Job("job-000004")
	if !ok {
		t.Fatal("classic queued job lost")
	}
	j4.awaitTerminal()
	if s4 := j4.Status(); s4.State != StateCompleted || s4.CacheHit {
		t.Fatalf("classic queued job did not re-run: %+v (%v)", s4, j4.Err())
	}
}

// TestRecoveryFailsUnresumableSweepChildren pins recovery of sweeps
// whose journaled spec no longer decodes — one planned by the retired
// analytic planner, one with a damaged field. Such a sweep cannot
// resume, so its owed children (queued, and journaled screened ones,
// a state that no longer exists) must fail as unrecoverable instead of
// reading queued forever; a completed child still serves its artifact.
func TestRecoveryFailsUnresumableSweepChildren(t *testing.T) {
	dir := t.TempDir()
	base, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	child := func(seed uint64) (JobRequest, []byte) {
		req := base
		req.Config.Seed = seed
		blob, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return req, blob
	}
	done, doneBlob := child(1)
	screened, screenedBlob := child(2)
	queued, queuedBlob := child(3)
	damaged, damagedBlob := child(4)
	artifact, err := RunRequestArtifact(context.Background(), doneBlob, nil)
	if err != nil {
		t.Fatal(err)
	}

	st := openStore(t, dir)
	doneSHA, err := st.PutArtifact(done.CacheKey(), artifact)
	if err != nil {
		t.Fatal(err)
	}
	must := func(e jobstore.Entry) {
		t.Helper()
		if err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	baseDoc := json.RawMessage(testBody)
	planned := fmt.Sprintf(`{"plan":"analytic","base":%s,"axes":[{"field":"seed","values":[1,2,3]}]}`, baseDoc)
	broken := fmt.Sprintf(`{"base":%s,"axes":[{"field":"seed","values":[4]}],"concurrency":"two"}`, baseDoc)
	must(jobstore.Entry{Kind: jobstore.KindSweep, ID: "sweep-000001", State: string(SweepRunning),
		Spec: json.RawMessage(planned), Children: []string{"job-000001", "job-000002", "job-000003"}})
	must(jobstore.Entry{Kind: jobstore.KindSweep, ID: "sweep-000002", State: string(SweepRunning),
		Spec: json.RawMessage(broken), Children: []string{"job-000004"}})
	job := func(id, sweep, state string, req JobRequest, blob []byte, sha string) {
		must(jobstore.Entry{Kind: jobstore.KindJob, ID: id, State: state, Sweep: sweep,
			Label: fmt.Sprintf("seed=%d", req.Config.Seed), CacheKey: req.CacheKey(), Request: blob, ArtifactSHA: sha})
	}
	job("job-000001", "sweep-000001", string(StateQueued), done, doneBlob, "")
	job("job-000001", "sweep-000001", string(StateCompleted), done, nil, doneSHA)
	job("job-000002", "sweep-000001", string(StateQueued), screened, screenedBlob, "")
	job("job-000002", "sweep-000001", "screened", screened, nil, "")
	job("job-000003", "sweep-000001", string(StateQueued), queued, queuedBlob, "")
	job("job-000004", "sweep-000002", string(StateQueued), damaged, damagedBlob, "")

	m, err := NewManager(Options{Workers: 2, QueueDepth: 8, Store: st})
	if err != nil {
		t.Fatalf("boot refused over unresumable sweeps: %v", err)
	}
	defer m.Close()
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()

	for _, tc := range []struct{ id, sweep, names string }{
		{"job-000002", "sweep-000001", "planner was retired"},
		{"job-000003", "sweep-000001", "planner was retired"},
		{"job-000004", "sweep-000002", "concurrency"},
	} {
		j, ok := m.Job(tc.id)
		if !ok {
			t.Fatalf("child %s lost", tc.id)
		}
		js := j.Status()
		want := "unrecoverable: sweep " + tc.sweep + ": "
		if js.State != StateFailed || !strings.HasPrefix(js.Error, want) || !strings.Contains(js.Error, tc.names) {
			t.Fatalf("child %s: state %s, error %q; want failed, %s… %s", tc.id, js.State, js.Error, want, tc.names)
		}
	}
	j1, ok := m.Job("job-000001")
	if !ok {
		t.Fatal("completed child lost")
	}
	if s1 := j1.Status(); s1.State != StateCompleted || !s1.CacheHit || !s1.Recovered {
		t.Fatalf("completed child: %+v", s1)
	}
	if got := getReport(t, srv.URL, "job-000001"); len(got) == 0 {
		t.Fatal("completed child serves an empty report")
	}
	for id, want := range map[string]SweepStatus{
		"sweep-000001": {State: SweepCanceled, TotalChildren: 3, Completed: 1, Failed: 2},
		"sweep-000002": {State: SweepCanceled, TotalChildren: 1, Failed: 1},
	} {
		sw, ok := m.Sweep(id)
		if !ok {
			t.Fatalf("sweep %s not recovered", id)
		}
		got := m.SweepStatus(sw, false)
		if got.State != want.State || got.TotalChildren != want.TotalChildren || got.Queued != 0 ||
			got.Completed != want.Completed || got.Failed != want.Failed {
			t.Fatalf("sweep %s: %+v, want %+v", id, got, want)
		}
	}
}

// TestSweepCrashRecovery is the kill-restart invariant for batch
// sweeps. A sweep runs to completion; its data directory is then
// doctored into the state a SIGKILL mid-sweep would leave — two
// children lack completion entries and artifacts, the sweep record
// still says running — and a fresh manager is built over it. The
// restart must serve the surviving children byte-identically from their
// artifacts (no re-execution) and re-run the missing ones to the exact
// same artifact bytes, finishing the sweep.
func TestSweepCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	st1 := openStore(t, dir)
	m1, err := NewManager(Options{Workers: 2, QueueDepth: 8, Store: st1})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer(NewHandler(m1, nil))

	resp, err := http.Post(srv1.URL+"/v1/sweeps", "application/json", strings.NewReader(sweepTestBody))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit sweep: %d\n%s", resp.StatusCode, b)
	}
	var submitted SweepStatus
	if err := json.Unmarshal(b, &submitted); err != nil {
		t.Fatal(err)
	}
	full := waitSweepState(t, srv1.URL, submitted.ID, SweepCompleted)
	if full.Completed != 4 {
		t.Fatalf("baseline sweep: %+v", full)
	}
	childIDs := make([]string, 0, 4)
	reports := map[string][]byte{}
	keys := map[string]string{}
	for _, c := range full.Children {
		childIDs = append(childIDs, c.ID)
		reports[c.ID] = getReport(t, srv1.URL, c.ID)
		j, _ := m1.Job(c.ID)
		keys[c.ID] = j.CacheKey()
	}
	srv1.Close()
	m1.Close()
	st1.Close()

	artifactBytes := func(id string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, "artifacts", keys[id]))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	baseline := map[string][]byte{}
	for _, id := range childIDs {
		baseline[id] = artifactBytes(id)
	}

	// Doctor the directory into a mid-sweep crash: the last two children
	// never completed — drop their completion entries and artifacts, and
	// the sweep's terminal entry.
	interrupted := map[string]bool{childIDs[2]: true, childIDs[3]: true}
	entries, err := jobstore.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	var kept bytes.Buffer
	for _, e := range entries {
		if e.Kind == jobstore.KindSweep && e.State == string(SweepCompleted) {
			continue
		}
		if e.Kind == jobstore.KindJob && interrupted[e.ID] && e.State == string(StateCompleted) {
			continue
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		kept.Write(line)
		kept.WriteByte('\n')
	}
	// A torn tail, as a real crash mid-append would leave.
	kept.WriteString(`{"kind":"job","id":"job-0000`)
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), kept.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for id := range interrupted {
		if err := os.Remove(filepath.Join(dir, "artifacts", keys[id])); err != nil {
			t.Fatal(err)
		}
	}

	// Restart over the crash image.
	st2 := openStore(t, dir)
	m2, err := NewManager(Options{Workers: 2, QueueDepth: 8, Store: st2})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	srv2 := httptest.NewServer(NewHandler(m2, nil))
	defer srv2.Close()

	resumed := waitSweepState(t, srv2.URL, submitted.ID, SweepCompleted)
	if resumed.Completed != 4 || resumed.Failed != 0 {
		t.Fatalf("resumed sweep: %+v", resumed)
	}

	for _, id := range childIDs {
		j, ok := m2.Job(id)
		if !ok {
			t.Fatalf("child %s lost across restart", id)
		}
		jst := j.Status()
		if !jst.Recovered || jst.State != StateCompleted {
			t.Fatalf("child %s: %+v", id, jst)
		}
		if interrupted[id] {
			if jst.CacheHit {
				t.Fatalf("interrupted child %s claims a cache hit; it must have re-run", id)
			}
		} else if !jst.CacheHit {
			t.Fatalf("surviving child %s re-ran instead of loading its artifact", id)
		}
		// Both classes land on identical bytes: reports on the wire and
		// artifacts on disk.
		if got := getReport(t, srv2.URL, id); !bytes.Equal(got, reports[id]) {
			t.Fatalf("child %s report diverged across crash recovery", id)
		}
		if got := artifactBytes(id); !bytes.Equal(got, baseline[id]) {
			t.Fatalf("child %s artifact diverged across crash recovery", id)
		}
	}
}

// TestRecoveryRejectsCorruptJournal pins the failure mode for damage
// that is not a torn tail: the manager refuses to start rather than
// serve from rewritten history.
func TestRecoveryRejectsCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	journal := "{broken json}\n" +
		`{"kind":"job","id":"job-000001","state":"queued"}` + "\n"
	if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	if _, err := NewManager(Options{Workers: 1, Store: st}); err == nil {
		t.Fatal("manager started over a corrupt journal")
	}
}

// TestJournalHoldsTransitionsOnly pins what a local job costs the
// journal: a fresh run journals exactly queued, running and completed
// (the last with its artifact digest), and a resubmission served from
// the cache journals exactly one completed entry. Recovery reads
// nothing else, so nothing else is fsynced.
func TestJournalHoldsTransitionsOnly(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := newTestManager(t, Options{Workers: 1, QueueDepth: 2, Store: st})
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	j, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	j.awaitTerminal()
	if j.State() != StateCompleted {
		t.Fatalf("job %s (%v)", j.State(), j.Err())
	}
	// The job reads completed before publishCompletion journals it,
	// so wait (bounded) for the journal to catch up before asserting.
	var entries []jobstore.Entry
	for deadline := time.Now().Add(10 * time.Second); ; {
		if entries, err = jobstore.Replay(dir); err != nil {
			t.Fatal(err)
		}
		if rec, ok := jobstore.Reduce(entries).Job(j.ID()); ok && rec.State == string(StateCompleted) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("journal never recorded the completion")
		}
		time.Sleep(5 * time.Millisecond)
	}
	states := func(entries []jobstore.Entry, id string) []string {
		var out []string
		for _, e := range entries {
			if e.Kind == jobstore.KindJob && e.ID == id {
				out = append(out, e.State)
			}
		}
		return out
	}
	want := []string{string(StateQueued), string(StateRunning), string(StateCompleted)}
	if got := states(entries, j.ID()); !slices.Equal(got, want) {
		t.Fatalf("fresh job journaled %v, want %v", got, want)
	}
	if last := entries[len(entries)-1]; last.ArtifactSHA == "" {
		t.Fatalf("completion entry %+v carries no artifact digest", last)
	}
	rec, ok := jobstore.Reduce(entries).Job(j.ID())
	if !ok || rec.State != string(StateCompleted) || rec.ArtifactSHA == "" {
		t.Fatalf("reduced record %+v", rec)
	}
	data, ok, err := st.GetArtifact(rec.CacheKey, rec.ArtifactSHA)
	if err != nil || !ok {
		t.Fatalf("artifact load: ok=%v err=%v", ok, err)
	}
	if _, _, err := decodeResult(data); err != nil {
		t.Fatal(err)
	}

	// Submit journals a cache hit before it returns.
	hit, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Status().CacheHit {
		t.Fatal("resubmission missed the cache")
	}
	if entries, err = jobstore.Replay(dir); err != nil {
		t.Fatal(err)
	}
	if got := states(entries, hit.ID()); !slices.Equal(got, []string{string(StateCompleted)}) {
		t.Fatalf("cache hit journaled %v, want [completed]", got)
	}
	if len(entries) != len(want)+1 {
		t.Fatalf("journal holds %d entries, want %d", len(entries), len(want)+1)
	}
}

// TestQueuedJournaledBeforeClaim pins the creation order with no hold on
// the worker: by the time any worker claims a fresh job, its queued
// entry — the one that carries the request document recovery re-runs
// from — is already in the journal. A claim that beat the entry would
// let a crash leave a running record with no request behind it.
func TestQueuedJournaledBeforeClaim(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, Options{Workers: 2, QueueDepth: 4, Store: openStore(t, dir)})
	var mu sync.Mutex
	var early []string
	m.beforeRun = func(j *Job) {
		entries, err := jobstore.Replay(dir)
		rec, ok := jobstore.Reduce(entries).Job(j.ID())
		if err != nil || !ok || rec.State != string(StateQueued) || len(rec.Request) == 0 {
			mu.Lock()
			early = append(early, j.ID())
			mu.Unlock()
		}
	}
	req, err := DecodeJobRequest([]byte(testBody))
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]*Job, 3)
	for i := range jobs {
		req.Config.Seed++
		if jobs[i], err = m.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	for _, j := range jobs {
		j.awaitTerminal()
	}
	if len(early) > 0 {
		t.Fatalf("jobs %v were claimed before their queued entry was journaled", early)
	}
}
