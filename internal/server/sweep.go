package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
)

// SweepSpec is the POST /v1/sweeps body: a base job request plus axes of
// overrides whose cross product expands server-side into child jobs.
// One POST replaces a scripted loop of per-job submissions — the shape
// the paper's methodology takes (policy × CPth × mix grids, forecast
// operating points) and the unit of crash recovery: the spec is
// journaled verbatim, and a restarted daemon re-expands it
// deterministically to find the children it still owes.
type SweepSpec struct {
	// Name is an optional human label carried through status output.
	Name string `json:"name,omitempty"`
	// Base is the request every child starts from; fields omitted here
	// keep the job-submission defaults.
	Base JobRequest `json:"base"`
	// Axes are applied as a cross product, first axis slowest — the
	// expansion order is deterministic and part of the recovery
	// contract. An empty axis list expands to the single base job.
	Axes []SweepAxis `json:"axes"`
	// MaxChildren caps the expansion; a spec whose product exceeds it is
	// rejected before anything is queued. <= 0 selects
	// DefaultSweepChildren; the hard ceiling is MaxSweepChildren.
	MaxChildren int `json:"max_children"`
	// Concurrency caps how many of this sweep's children run or wait in
	// the execution queue at once (the rest stay pending in the sweep).
	// <= 0 selects DefaultSweepConcurrency.
	Concurrency int `json:"concurrency"`
	// Plan selects the coarse-to-fine planner. Empty (the default) runs
	// every child; PlanAnalytic first estimates each child with the
	// analytic fast path and fully simulates only the estimated Pareto
	// frontier (lifetime × young IPC) — children another child safely
	// dominates beyond the estimates' combined error bounds finish
	// "screened" without simulating.
	Plan string `json:"plan,omitempty"`
	// PlanCalibrationCycles sizes the planner's per-child calibration
	// window; <= 0 derives it from the base request (a quarter of
	// measure_cycles).
	PlanCalibrationCycles uint64 `json:"plan_calibration_cycles,omitempty"`
}

// PlanAnalytic is the SweepSpec.Plan value that enables analytic
// coarse-to-fine screening.
const PlanAnalytic = "analytic"

// SweepAxis is one override dimension: a field name from the sweep axis
// allowlist and the values it takes.
type SweepAxis struct {
	Field  string            `json:"field"`
	Values []json.RawMessage `json:"values"`
}

// Sweep expansion bounds and defaults.
const (
	DefaultSweepChildren    = 256
	MaxSweepChildren        = 1024
	DefaultSweepConcurrency = 4
	maxSweepConcurrency     = 256
)

// sweepAxisSetters is the allowlist of sweep axis fields: everything a
// child may vary, each with its typed application. Unknown fields are
// rejected at decode time — before any job is queued.
var sweepAxisSetters = map[string]func(*JobRequest, json.RawMessage) error{
	"policy":             func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.PolicyName) },
	"cpth":               func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.CPth) },
	"mix_id":             func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.MixID) },
	"seed":               func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.Seed) },
	"scale":              func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.Scale) },
	"th":                 func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.Th) },
	"tw":                 func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.Tw) },
	"llc_sets":           func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.LLCSets) },
	"sram_ways":          func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.SRAMWays) },
	"nvm_ways":           func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.NVMWays) },
	"l2_size_kb":         func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.L2SizeKB) },
	"epoch_cycles":       func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.EpochCycles) },
	"endurance_mean":     func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.EnduranceMean) },
	"endurance_cv":       func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.EnduranceCV) },
	"nvm_latency_factor": func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.NVMLatencyFactor) },
	"nvm_rrip":           func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Config.NVMRRIP) },
	"tournament": func(r *JobRequest, v json.RawMessage) error {
		// Decode into a fresh bracket — overwriting through the base's
		// pointer would leak one child's bracket into its siblings.
		tc := new(core.TournamentConfig)
		if err := strictUnmarshal(v, tc); err != nil {
			return err
		}
		r.Config.Tournament = tc
		return nil
	},
	"capacity":       func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.Capacity) },
	"warmup_cycles":  func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.WarmupCycles) },
	"measure_cycles": func(r *JobRequest, v json.RawMessage) error { return json.Unmarshal(v, &r.MeasureCycles) },
}

func strictUnmarshal(data []byte, v interface{}) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after JSON document")
	}
	return nil
}

// DecodeSweepSpec decodes a sweep submission strictly over the defaults
// (base = the job-submission defaults) and validates its shape. Child
// configs are validated separately by Expand.
func DecodeSweepSpec(data []byte) (SweepSpec, error) {
	spec := SweepSpec{Base: DefaultJobRequest()}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("sweep spec: %w", err)
	}
	if dec.More() {
		return spec, fmt.Errorf("sweep spec: trailing data after JSON document")
	}
	return spec, spec.Validate()
}

// Validate checks the spec's shape: known, unique axis fields with
// values, and bounds on expansion size and concurrency. It does not
// validate child configs — Expand does, per child.
func (s SweepSpec) Validate() error {
	if s.MaxChildren > MaxSweepChildren {
		return fmt.Errorf("sweep spec: max_children %d exceeds the ceiling %d", s.MaxChildren, MaxSweepChildren)
	}
	if s.Concurrency > maxSweepConcurrency {
		return fmt.Errorf("sweep spec: concurrency %d exceeds the ceiling %d", s.Concurrency, maxSweepConcurrency)
	}
	if s.Plan != "" && s.Plan != PlanAnalytic {
		return fmt.Errorf("sweep spec: unknown plan %q (valid: %q)", s.Plan, PlanAnalytic)
	}
	if s.PlanCalibrationCycles > core.MaxEpochCycles {
		return fmt.Errorf("sweep spec: plan_calibration_cycles %d exceeds the ceiling %d", s.PlanCalibrationCycles, core.MaxEpochCycles)
	}
	seen := make(map[string]bool, len(s.Axes))
	for i, ax := range s.Axes {
		if _, ok := sweepAxisSetters[ax.Field]; !ok {
			if ax.Field == "shards" {
				// The retired set-sharded engine's knob: say where
				// parallelism lives now instead of "unknown field".
				return fmt.Errorf("sweep spec: axis %d: shards is no longer an axis; the children of one POST /v1/sweeps already run in parallel", i)
			}
			return fmt.Errorf("sweep spec: axis %d: unknown field %q", i, ax.Field)
		}
		if seen[ax.Field] {
			return fmt.Errorf("sweep spec: axis field %q repeated", ax.Field)
		}
		seen[ax.Field] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("sweep spec: axis %q has no values", ax.Field)
		}
	}
	return nil
}

// maxChildren resolves the effective expansion cap.
func (s SweepSpec) maxChildren() int {
	if s.MaxChildren <= 0 {
		return DefaultSweepChildren
	}
	return s.MaxChildren
}

// concurrency resolves the effective per-sweep concurrency cap.
func (s SweepSpec) concurrency() int {
	if s.Concurrency <= 0 {
		return DefaultSweepConcurrency
	}
	return s.Concurrency
}

// planSpec derives the analytic estimate spec the planner runs for one
// child: the child's own config and warm-up, a calibration window of
// plan_calibration_cycles (default: a quarter of the child's measured
// window, at least one cycle), and the paper's 50% capacity target.
func (s SweepSpec) planSpec(req JobRequest) analytic.Spec {
	calib := s.PlanCalibrationCycles
	if calib == 0 {
		calib = req.MeasureCycles / 4
		if calib == 0 {
			calib = 1
		}
	}
	return analytic.Spec{
		Config:            req.Config,
		WarmupCycles:      req.WarmupCycles,
		CalibrationCycles: calib,
		TargetCapacity:    0.5,
	}
}

// SweepChild is one expanded job of a sweep: the request plus the axis
// label naming its position ("policy=CA,cpth=40").
type SweepChild struct {
	Label   string
	Request JobRequest
}

// Expand applies the axes' cross product to the base request and
// validates every child, in deterministic order (first axis slowest).
// The expansion is rejected whole if it exceeds the declared cap or any
// child fails config validation — a sweep never partially queues.
func (s SweepSpec) Expand() ([]SweepChild, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	total := 1
	cap := s.maxChildren()
	for _, ax := range s.Axes {
		if total > cap/len(ax.Values) && total*len(ax.Values) > cap { // overflow-safe bound
			return nil, fmt.Errorf("sweep spec: expansion exceeds max_children %d", cap)
		}
		total *= len(ax.Values)
	}
	if total > cap {
		return nil, fmt.Errorf("sweep spec: %d children exceed max_children %d", total, cap)
	}

	children := make([]SweepChild, 0, total)
	idx := make([]int, len(s.Axes))
	for {
		req := s.Base
		var label bytes.Buffer
		for a, ax := range s.Axes {
			v := ax.Values[idx[a]]
			if err := sweepAxisSetters[ax.Field](&req, v); err != nil {
				return nil, fmt.Errorf("sweep spec: axis %q value %s: %w", ax.Field, compactRaw(v), err)
			}
			if a > 0 {
				label.WriteByte(',')
			}
			fmt.Fprintf(&label, "%s=%s", ax.Field, compactRaw(v))
		}
		if err := req.Validate(); err != nil {
			return nil, fmt.Errorf("sweep spec: child %q: %w", label.String(), err)
		}
		children = append(children, SweepChild{Label: label.String(), Request: req})

		// Odometer increment, last axis fastest.
		a := len(s.Axes) - 1
		for ; a >= 0; a-- {
			idx[a]++
			if idx[a] < len(s.Axes[a].Values) {
				break
			}
			idx[a] = 0
		}
		if a < 0 {
			break
		}
	}
	return children, nil
}

// compactRaw renders an axis value for labels: compact JSON, strings
// unquoted.
func compactRaw(v json.RawMessage) string {
	var buf bytes.Buffer
	if err := json.Compact(&buf, v); err != nil {
		return string(v)
	}
	out := buf.String()
	var s string
	if err := json.Unmarshal(buf.Bytes(), &s); err == nil {
		return s
	}
	return out
}

// SweepState is a sweep's lifecycle position.
type SweepState string

// Sweep lifecycle states. A sweep whose children all reached terminal
// states is completed even when some failed — a poisoned child degrades
// the sweep's aggregate, it does not kill its siblings. Canceled marks
// a sweep interrupted by shutdown; a restart over the same data dir
// resumes it.
const (
	SweepRunning   SweepState = "running"
	SweepCompleted SweepState = "completed"
	SweepCanceled  SweepState = "canceled"
)

// Terminal reports whether the sweep state is final for this process
// (a canceled sweep is resumable by the next one).
func (s SweepState) Terminal() bool { return s == SweepCompleted || s == SweepCanceled }

// Sweep is one submitted batch: the spec, its expanded children (by job
// ID, in expansion order) and the scheduling state.
type Sweep struct {
	id      string
	spec    SweepSpec
	specRaw json.RawMessage
	created time.Time

	mu       sync.Mutex
	state    SweepState
	finished time.Time
	children []string
}

// ID returns the sweep's identifier.
func (s *Sweep) ID() string { return s.id }

// Children returns the sweep's child job IDs in expansion order.
func (s *Sweep) Children() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.children...)
}

// State returns the sweep's current lifecycle state.
func (s *Sweep) State() SweepState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// snapshot returns a consistent view of the sweep's mutable state plus
// its immutable identity fields, for status assembly.
func (s *Sweep) snapshot() (state SweepState, created, finished time.Time, name string, children []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state, s.created, s.finished, s.spec.Name, append([]string(nil), s.children...)
}

// finalize moves the sweep to a terminal state once.
func (s *Sweep) finalize(state SweepState) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state.Terminal() {
		return false
	}
	s.state = state
	s.finished = time.Now()
	return true
}

// SweepStatus is the wire form of a sweep: identity, lifecycle, child
// state counts and the aggregate over completed children.
type SweepStatus struct {
	ID         string     `json:"id"`
	Name       string     `json:"name,omitempty"`
	State      SweepState `json:"state"`
	CreatedAt  time.Time  `json:"created_at"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`

	TotalChildren int `json:"total_children"`
	Queued        int `json:"queued"`
	Running       int `json:"running"`
	Completed     int `json:"completed"`
	Failed        int `json:"failed"`
	Canceled      int `json:"canceled"`
	// Screened counts children the analytic planner retired without
	// simulating (another child dominates them beyond the error bounds).
	Screened  int `json:"screened,omitempty"`
	CacheHits int `json:"cache_hits"`
	Retried   int `json:"retried"` // children that needed more than one attempt

	// MeanIPC averages the completed children's mean IPC (0 until one
	// completes) — the sweep's one-number aggregate.
	MeanIPC float64 `json:"mean_ipc"`

	Children []SweepChildStatus `json:"children,omitempty"`
}

// SweepChildStatus is one child row of a sweep status. The Est* fields
// carry the analytic planner's estimate — on screened children they are
// the whole verdict; on simulated children of a planned sweep they sit
// next to the measured result, so the aggregate reports the
// analytic-vs-simulated delta per kept child.
type SweepChildStatus struct {
	ID       string   `json:"id"`
	Label    string   `json:"label,omitempty"`
	State    JobState `json:"state"`
	CacheHit bool     `json:"cache_hit"`
	Attempts int      `json:"attempts,omitempty"`
	MeanIPC  *float64 `json:"mean_ipc,omitempty"` // completed children only

	EstIPC            *float64 `json:"est_ipc,omitempty"`
	EstLifetimeMonths *float64 `json:"est_lifetime_months,omitempty"`
	EstCensored       bool     `json:"est_censored,omitempty"`

	Error string `json:"error,omitempty"`
}
