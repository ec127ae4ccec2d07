package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/jobstore"
)

// This file is the coordinator half of the fleet protocol: leasing jobs
// off the manager's queue to remote workers, ingesting their uploads,
// and expiring the leases of workers that stop heartbeating. Remote and
// local execution share one queue and one journal; a job neither knows
// nor cares where it runs, and the journal's extra states ("leased",
// "requeued") read as non-terminal on replay, so PR 7's recovery
// re-runs them without any new cases.

// Journal-only lease states. Like stateRetrying they never become a
// Job's lifecycle state — on replay both read as "interrupted, run it
// again", which is exactly the at-least-once contract.
const (
	// stateLeased: the job left the queue on a fleet lease.
	stateLeased = "leased"
	// stateRequeued: the lease expired and the job went back on the
	// queue.
	stateRequeued = "requeued"
)

// Fleet failure modes, mapped onto HTTP statuses by the handlers (204,
// and 400 respectively; fleet.ErrLeaseGone maps to 410).
var (
	// ErrNoWork: no job became runnable within the acquire wait.
	ErrNoWork = errors.New("server: no runnable job")
	// ErrArtifactMismatch: an uploaded artifact failed verification
	// (hash, codec, or cache key). The lease stays active so the worker
	// can retry the upload — a corrupt upload must not poison the job.
	ErrArtifactMismatch = errors.New("server: artifact verification failed")
)

// maxAcquireWait caps the long-poll budget a worker may request.
const maxAcquireWait = 30 * time.Second

// AcquireLease hands the next runnable job to a fleet worker: it pulls
// from the same queue the local pool drains, marks the job running,
// grants a lease, and journals the transition with the worker and
// token. With no runnable job it waits up to wait (capped) before
// returning ErrNoWork; a draining manager refuses with ErrDraining.
func (m *Manager) AcquireLease(ctx context.Context, workerID string, wait time.Duration) (*fleet.Grant, error) {
	if workerID == "" {
		return nil, fmt.Errorf("server: acquire needs a worker_id")
	}
	m.leases.TouchWorker(workerID)
	if wait < 0 {
		wait = 0
	}
	if wait > maxAcquireWait {
		wait = maxAcquireWait
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		if m.Draining() {
			return nil, ErrDraining
		}
		select {
		case j := <-m.queue:
			g, ok := m.grantJob(j, workerID)
			if !ok { // canceled while queued; take the next one
				continue
			}
			return g, nil
		case <-m.drainc:
			return nil, ErrDraining
		case <-timer.C:
			return nil, ErrNoWork
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// grantJob leases one dequeued job to a worker. False means the job was
// no longer runnable (canceled while queued) and was skipped.
func (m *Manager) grantJob(j *Job, workerID string) (*fleet.Grant, bool) {
	if !j.markRunning() {
		return nil, false
	}
	attempt := j.beginAttempt()
	l, err := m.leases.Grant(j.id, workerID, attempt)
	if err != nil {
		// A job dequeued from the channel cannot hold an active lease
		// (expiry removes the lease before requeueing), so this is a
		// bookkeeping bug; fail the job loudly rather than lose it.
		m.log.Error("lease grant refused", "job", j.id, "worker", workerID, "err", err)
		m.finishJob(j, StateFailed, nil, err, cliutil.TaskResult{})
		return nil, false
	}
	j.setWorker(workerID)
	m.journal(jobstore.Entry{Kind: jobstore.KindJob, ID: j.id, State: stateLeased,
		Sweep: j.sweepID, Label: j.label, CacheKey: j.cacheKey,
		Attempt: attempt, Worker: workerID, Lease: l.Token})
	m.log.Info("lease granted", "job", j.id, "sweep", j.sweepID,
		"worker", workerID, "lease", l.Token, "attempt", attempt)
	return &fleet.Grant{
		Token:     l.Token,
		JobID:     j.id,
		CacheKey:  j.cacheKey,
		Sweep:     j.sweepID,
		Label:     j.label,
		Attempt:   attempt,
		TTLMillis: m.leases.TTL().Milliseconds(),
		Deadline:  l.Deadline,
		Request:   marshalRequest(j.req),
	}, true
}

// HeartbeatLease renews a lease and folds the worker's reported
// progress into the job's live status. fleet.ErrLeaseGone tells the
// worker its lease expired (the job is already requeued) and it should
// abandon the run.
func (m *Manager) HeartbeatLease(token string, hb fleet.HeartbeatRequest) (fleet.HeartbeatResponse, error) {
	deadline, err := m.leases.Heartbeat(token)
	if err != nil {
		return fleet.HeartbeatResponse{}, err
	}
	if l, state := m.leases.Peek(token); state == fleet.TokenActive && hb.TotalCycles > 0 {
		if j, ok := m.Job(l.JobID); ok {
			j.setProgress(hb.ProgressCycles, hb.TotalCycles)
		}
	}
	return fleet.HeartbeatResponse{Deadline: deadline, TTLMillis: m.leases.TTL().Milliseconds()}, nil
}

// CompleteLease resolves a lease with either an uploaded artifact or an
// error report. Artifacts are verified — SHA-256 against the declared
// digest, codec decode, cache key against the job's content address —
// *before* the lease is resolved or anything is journaled, so a corrupt
// upload leaves both the lease and the job untouched (the worker can
// retry, or the lease expires and the job requeues). Duplicate
// completions (a revived worker racing the replacement that already
// finished the job) are resolved idempotently: the bytes are verified,
// found to carry the same content address, and discarded.
func (m *Manager) CompleteLease(token string, req fleet.CompleteRequest) (fleet.CompleteResponse, error) {
	l, state := m.leases.Peek(token)
	if l == nil {
		return fleet.CompleteResponse{}, fmt.Errorf("%w (%s)", fleet.ErrLeaseGone, state)
	}
	j, ok := m.Job(l.JobID)
	if !ok {
		m.leases.Resolve(token)
		return fleet.CompleteResponse{}, fmt.Errorf("server: lease %s names unknown job %s", token, l.JobID)
	}

	if req.Error != "" {
		return m.completeRemoteFailure(token, l, j, req), nil
	}

	sum := sha256.Sum256(req.Artifact)
	if got := hex.EncodeToString(sum[:]); got != req.ArtifactSHA {
		return fleet.CompleteResponse{}, fmt.Errorf("%w: artifact sha %s, declared %s",
			ErrArtifactMismatch, got, req.ArtifactSHA)
	}
	res, key, err := decodeResultKeyed(req.Artifact)
	if err != nil {
		return fleet.CompleteResponse{}, fmt.Errorf("%w: %v", ErrArtifactMismatch, err)
	}
	if key != j.cacheKey {
		return fleet.CompleteResponse{}, fmt.Errorf("%w: artifact key %s, job wants %s",
			ErrArtifactMismatch, key, j.cacheKey)
	}
	if _, err := m.leases.Resolve(token); err != nil {
		// The lease expired between Peek and Resolve; the upload is
		// still good bytes for the right key, so fall through and let
		// idempotent completion decide (the requeued copy may not have
		// re-run yet, in which case this upload completes the job).
		m.log.Warn("lease expired during upload", "job", j.id, "lease", token, "err", err)
	}
	resolution := m.completeRemote(j, l, res, req.Artifact, req.ArtifactSHA)
	return fleet.CompleteResponse{Resolution: resolution, JobID: j.id}, nil
}

// completeRemoteFailure resolves a lease whose worker reported an
// execution error: requeue within the retry budget for transient
// failures, terminal failure otherwise.
func (m *Manager) completeRemoteFailure(token string, l *fleet.Lease, j *Job, req fleet.CompleteRequest) fleet.CompleteResponse {
	m.leases.Resolve(token)
	cause := errors.New(req.Error)
	if req.Transient && l.Attempt < m.opts.Retries+1 && m.rootCtx.Err() == nil {
		if m.requeueJob(j, requeueRetry, l.Attempt, l.Worker, token, cause) {
			return fleet.CompleteResponse{Resolution: fleet.ResolutionRequeued, JobID: j.id}
		}
	}
	m.finishJob(j, StateFailed, nil, fmt.Errorf("worker %s: %w", l.Worker, cause), cliutil.TaskResult{})
	return fleet.CompleteResponse{Resolution: fleet.ResolutionFailed, JobID: j.id}
}

// completeRemote ingests a verified remote artifact: blob into the
// store first (journaled completion implies the artifact exists, same
// ordering finishJob keeps), then the in-memory transition. When the
// job is already terminal — the duplicate-completion race — nothing is
// counted or journaled twice; the verified bytes are simply dropped,
// which is safe because content addressing makes them identical to the
// bytes already stored.
func (m *Manager) completeRemote(j *Job, l *fleet.Lease, res *Result, blob []byte, sha string) string {
	if m.store != nil {
		if _, err := m.store.PutArtifact(j.cacheKey, blob); err != nil {
			m.log.Error("remote artifact write failed", "job", j.id, "key", j.cacheKey, "err", err)
			sha = ""
		}
	}
	if !j.finish(StateCompleted, res, nil) {
		m.leasesDup.Add(1)
		m.log.Info("duplicate completion resolved by hash", "job", j.id,
			"worker", l.Worker, "lease", l.Token, "sha", sha)
		return fleet.ResolutionDuplicate
	}
	m.cache.put(j.cacheKey, res)
	m.completed.Add(1)
	m.journal(jobstore.Entry{Kind: jobstore.KindJob, ID: j.id, State: string(StateCompleted),
		Sweep: j.sweepID, Label: j.label, CacheKey: j.cacheKey,
		Attempt: j.Attempts(), ArtifactSHA: sha, Worker: l.Worker, Lease: l.Token})
	m.observeDuration(time.Since(l.Granted))
	m.log.Info("job completed remotely", "job", j.id, "sweep", j.sweepID,
		"worker", l.Worker, "lease", l.Token,
		"mean_ipc", res.Summary.MeanIPC, "attempts", j.Attempts())
	return fleet.ResolutionCompleted
}

// Leases lists the active fleet leases (GET /v1/leases).
func (m *Manager) Leases() []fleet.LeaseInfo { return m.leases.Active() }

// leaseExpiryLoop is the missed-heartbeat reaper: it scans the table at
// a quarter of the TTL and requeues the job behind every expired lease.
// It exits on rootCtx and deliberately stays out of m.wg — Drain waits
// on the group before the root context is canceled, and remote jobs
// whose leases expire mid-drain must still be requeued (where the
// draining enqueue converts them to canceled) rather than stranded.
func (m *Manager) leaseExpiryLoop() {
	interval := m.leases.TTL() / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	if interval > time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.rootCtx.Done():
			return
		case <-ticker.C:
		}
		for _, l := range m.leases.ExpireDue() {
			j, ok := m.Job(l.JobID)
			if !ok {
				continue
			}
			m.log.Warn("lease expired, requeueing job", "job", j.id, "sweep", j.sweepID,
				"worker", l.Worker, "lease", l.Token, "attempt", l.Attempt)
			m.requeueJob(j, requeueLease, l.Attempt, l.Worker, l.Token,
				fmt.Errorf("lease expired on worker %s", l.Worker))
		}
	}
}

// RunRequestArtifact is the fleet worker's executor: it decodes a
// strict-canonical request document, runs it through the same engine
// path the coordinator's local pool uses, and returns the encoded
// artifact bytes. The engine is bit-exact and the codec deterministic,
// so the bytes are identical to what local execution of the same
// request would have stored — the property that makes remote leases,
// duplicate uploads, and artifact hash checks all compose.
func RunRequestArtifact(ctx context.Context, request json.RawMessage, onProgress func(done, total uint64)) ([]byte, error) {
	req, err := DecodeJobRequest(request)
	if err != nil {
		return nil, err
	}
	h, err := req.Config.NewRunHandle()
	if err != nil {
		return nil, err
	}
	if req.Capacity < 1 {
		h.PreAge(req.Capacity)
	}
	sum, err := h.MeasureCtx(ctx, req.WarmupCycles, req.MeasureCycles, core.RunHooks{OnProgress: onProgress})
	if err != nil {
		return nil, err
	}
	winner := -1
	if w, ok := h.DuelingWinner(); ok {
		winner = w
	}
	return encodeResult(req.CacheKey(), &Result{
		Summary:    sum,
		Epochs:     h.EpochRing().Samples(),
		CPthWinner: winner,
	})
}
