// Package fleet implements lease-based distributed execution for simd:
// the wire protocol and lease bookkeeping that let stateless workers
// pull jobs from a coordinator's queue over HTTP.
//
// The protocol is deliberately small — three POSTs:
//
//	POST /v1/leases                    acquire the next runnable job
//	POST /v1/leases/{token}/heartbeat  renew the lease, report progress
//	POST /v1/leases/{token}/complete   upload the artifact (or an error)
//
// A lease is a time-bounded claim on one job. The coordinator grants it
// with a deadline; the worker renews by heartbeating. If the worker
// dies (or partitions) and the deadline passes, the coordinator expires
// the lease and requeues the job for the next worker — the journal
// records the transition so crash recovery composes with replay.
//
// Correctness leans on two properties the rest of the codebase already
// provides. The engine is bit-exact, so a job executed anywhere yields
// byte-identical artifacts, and artifacts are content-addressed by the
// canonical config hash. Together these make duplicate completions — a
// worker revived after its lease expired, racing the replacement —
// trivially resolvable: same hash, same bytes, keep the first, thank
// the second. Execution is therefore at-least-once with idempotent
// effects, and the lease table only has to prevent *concurrent* grants
// of the same job, not duplicate *results*.
//
// The package has no dependency on internal/server: the coordinator
// side embeds a Table and maps its errors onto HTTP statuses, while the
// Worker half speaks the wire types below through a cliutil.HTTPClient.
package fleet

import (
	"encoding/json"
	"time"
)

// AcquireRequest asks the coordinator for the next runnable job.
type AcquireRequest struct {
	// WorkerID identifies the requesting worker in journal entries,
	// logs, and /v1/jobs status output. Required.
	WorkerID string `json:"worker_id"`
	// WaitMillis long-polls: the coordinator holds the request up to
	// this long for a job to become runnable before answering 204.
	// Zero returns immediately; the server caps the wait.
	WaitMillis int64 `json:"wait_millis,omitempty"`
}

// Grant is the coordinator's answer to a successful acquire: one job,
// one lease.
type Grant struct {
	// Token names the lease in heartbeat and complete calls. Opaque.
	Token string `json:"token"`
	// JobID is the coordinator's job identifier, for logs and status.
	JobID string `json:"job_id"`
	// CacheKey is the job's content address — SHA-256 of the canonical
	// config. The completed artifact must decode to this key.
	CacheKey string `json:"cache_key"`
	// Sweep and Label locate the job inside a sweep, when it has one.
	Sweep string `json:"sweep,omitempty"`
	Label string `json:"label,omitempty"`
	// Attempt is 1 for a first execution and counts up across
	// requeues, so worker logs can tell a retry from a fresh job.
	Attempt int `json:"attempt"`
	// TTLMillis is the heartbeat budget: miss it and the lease expires.
	TTLMillis int64 `json:"ttl_millis"`
	// Deadline is the current expiry instant (coordinator clock).
	Deadline time.Time `json:"deadline"`
	// Request is the strict-canonical job request document, exactly as
	// the coordinator validated it. The worker re-validates before
	// running — a version-skewed worker must reject, not guess.
	Request json.RawMessage `json:"request"`
}

// HeartbeatRequest renews a lease and reports progress.
type HeartbeatRequest struct {
	// ProgressCycles / TotalCycles mirror the chunked runner's
	// progress hook so the coordinator's job status stays live.
	ProgressCycles uint64 `json:"progress_cycles,omitempty"`
	TotalCycles    uint64 `json:"total_cycles,omitempty"`
}

// HeartbeatResponse carries the pushed-back deadline.
type HeartbeatResponse struct {
	Deadline  time.Time `json:"deadline"`
	TTLMillis int64     `json:"ttl_millis"`
}

// CompleteRequest finishes a lease: either an artifact or an error.
type CompleteRequest struct {
	// Artifact is the encoded result document (the same bytes the
	// coordinator would have written locally). Empty when reporting
	// an error.
	Artifact []byte `json:"artifact,omitempty"`
	// ArtifactSHA is the hex SHA-256 of Artifact, computed by the
	// worker; the coordinator re-hashes and rejects mismatches before
	// journaling anything.
	ArtifactSHA string `json:"artifact_sha,omitempty"`
	// Error reports an execution failure instead of an artifact.
	Error string `json:"error,omitempty"`
	// Transient marks the failure as retryable (panic, timeout) so the
	// coordinator can requeue within the retry budget.
	Transient bool `json:"transient,omitempty"`
}

// Resolutions a CompleteResponse can carry.
const (
	// ResolutionCompleted: the artifact was verified and journaled.
	ResolutionCompleted = "completed"
	// ResolutionDuplicate: the job already reached a terminal state
	// (typically a revived worker racing its replacement); the upload
	// was verified and discarded. Not an error.
	ResolutionDuplicate = "duplicate"
	// ResolutionFailed: the reported error was journaled as terminal.
	ResolutionFailed = "failed"
	// ResolutionRequeued: a transient failure within the retry budget;
	// the job went back on the queue.
	ResolutionRequeued = "requeued"
)

// CompleteResponse tells the worker how its completion was resolved.
type CompleteResponse struct {
	Resolution string `json:"resolution"`
	JobID      string `json:"job_id"`
}

// LeaseInfo describes one active lease, for GET /v1/leases.
type LeaseInfo struct {
	Token    string    `json:"token"`
	JobID    string    `json:"job_id"`
	Worker   string    `json:"worker"`
	Attempt  int       `json:"attempt"`
	Granted  time.Time `json:"granted"`
	Deadline time.Time `json:"deadline"`
	Renewals uint64    `json:"renewals"`
}
