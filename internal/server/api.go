// Package server is the simulation-as-a-service layer: a job manager
// that queues hybrid-LLC simulation runs on a bounded queue, executes
// them on hardened workers (internal/cliutil), caches completed results
// content-addressed by their canonical config, and an HTTP/JSON front-end
// (cmd/simd) with live per-epoch streaming. The paper's methodology —
// CPth sweeps, Th/Tw sweeps, aging forecasts — is many parameterized runs
// of the same engine; this package turns each into a submit/poll/stream
// job instead of a from-scratch CLI process.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
)

// JobRequest is the POST /v1/jobs body. It decodes strictly (unknown
// fields are rejected) over the defaults below, so a partial document —
// often just {"config": {"policy": "CA", "cpth": 40}} — is a complete
// submission.
type JobRequest struct {
	// Config is the simulation to run; omitted fields keep
	// core.DefaultConfig values.
	Config core.Config `json:"config"`
	// WarmupCycles and MeasureCycles bound the run window (defaults
	// mirror cmd/hybridsim: 2M warm-up, 10M measured).
	WarmupCycles  uint64 `json:"warmup_cycles"`
	MeasureCycles uint64 `json:"measure_cycles"`
	// Capacity pre-ages the NVM part to this effective-capacity fraction
	// before the run (1 = unaged, the default).
	Capacity float64 `json:"capacity"`
	// Epochs includes the per-epoch series table in the report; the
	// /epochs stream is available either way.
	Epochs bool `json:"epochs"`
	// Metrics includes the full registry delta table in the report.
	Metrics bool `json:"metrics"`
}

// DefaultJobRequest returns the request every submission overlays:
// DefaultConfig and the hybridsim window defaults.
func DefaultJobRequest() JobRequest {
	return JobRequest{
		Config:        core.DefaultConfig(),
		WarmupCycles:  2_000_000,
		MeasureCycles: 10_000_000,
		Capacity:      1,
	}
}

// DecodeJobRequest decodes a submission body strictly over the defaults.
func DecodeJobRequest(data []byte) (JobRequest, error) {
	req := DefaultJobRequest()
	if err := core.UnmarshalStrict(data, &req); err != nil {
		return req, fmt.Errorf("job request: %w", err)
	}
	return req, req.Validate()
}

// Validate checks the request beyond Config.Validate's rules.
func (r JobRequest) Validate() error {
	if err := r.Config.Validate(); err != nil {
		return err
	}
	if r.MeasureCycles == 0 {
		return fmt.Errorf("job request: measure_cycles must be positive")
	}
	if r.Capacity <= 0 || r.Capacity > 1 {
		return fmt.Errorf("job request: capacity %v outside (0,1]", r.Capacity)
	}
	return nil
}

// CacheKey returns the content address of the request's result: the
// SHA-256 of the canonical JSON of every simulation-affecting input.
// Rendering options (epochs/metrics tables) are excluded — they change
// the report, not the simulation. The retired shard count hashes as 0:
// the only valid values, 0 and 1, run the same simulation.
func (r JobRequest) CacheKey() string {
	canon := r.Config
	canon.Shards = 0
	blob, err := json.Marshal(struct {
		Config   core.Config `json:"config"`
		Warmup   uint64      `json:"warmup_cycles"`
		Measure  uint64      `json:"measure_cycles"`
		Capacity float64     `json:"capacity"`
	}{canon, r.WarmupCycles, r.MeasureCycles, r.Capacity})
	if err != nil {
		// Config marshals plain scalars only; failure here is a
		// programming error, but a per-request unique key keeps the
		// daemon correct (the entry just never hits).
		blob = []byte(fmt.Sprintf("unhashable:%+v", r))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle states.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateCompleted JobState = "completed"
	StateFailed    JobState = "failed"
	StateCanceled  JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateCompleted || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire form of a job's current state.
type JobStatus struct {
	ID          string     `json:"id"`
	State       JobState   `json:"state"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
	// ProgressCycles of TotalCycles have been simulated (warm-up plus
	// measurement); cache hits report full progress immediately.
	ProgressCycles uint64 `json:"progress_cycles"`
	TotalCycles    uint64 `json:"total_cycles"`
	// Epochs counts set-dueling epochs closed so far (streamable via
	// GET /v1/jobs/{id}/epochs).
	Epochs   int    `json:"epochs"`
	CacheHit bool   `json:"cache_hit"`
	CacheKey string `json:"cache_key"`
	// Attempts counts execution attempts (greater than 1 after a
	// transient failure was retried).
	Attempts int `json:"attempts,omitempty"`
	// Sweep and Label identify the owning batch sweep and this child's
	// position on its axes, for sweep children.
	Sweep string `json:"sweep,omitempty"`
	Label string `json:"label,omitempty"`
	// Worker names the fleet worker that held (or holds) the job's
	// lease; empty for jobs run by the coordinator's own pool.
	Worker string `json:"worker,omitempty"`
	// Recovered marks a job restored from the persistent store's journal
	// after a daemon restart.
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`
}

// JobResponse is the GET /v1/jobs/{id} JSON body: the status plus, once
// completed, the report-sink JSON object.
type JobResponse struct {
	JobStatus
	Report json.RawMessage `json:"report,omitempty"`
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}
