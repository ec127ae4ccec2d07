package server

import (
	"sync"
	"time"

	"repro/internal/analytic"
	"repro/internal/core"
	"repro/internal/metrics"
)

// Result is a completed job's outcome: core.RunWindow's result, shared
// by the cache, the artifact codec and late readers.
type Result = core.Result

// Job is one queued simulation run. All mutable state sits behind the
// mutex; readers get consistent copies and live epoch followers block on
// a closed-and-replaced notify channel.
type Job struct {
	id        string
	req       JobRequest
	cacheKey  string
	sweepID   string // owning sweep, empty for standalone submissions
	label     string // sweep-child axis label ("policy=CA,cpth=40")
	submitted time.Time

	mu        sync.Mutex
	state     JobState
	started   time.Time
	finished  time.Time
	done      uint64
	total     uint64
	attempts  int    // execution attempts so far (retries increment)
	worker    string // fleet worker holding (or last holding) the job
	recovered bool
	epochs    []metrics.Sample
	notify    chan struct{}
	result    *Result
	err       error
	cacheHit  bool
	estimate  *analytic.Estimate // planner's analytic estimate, when planned
}

func newJob(id string, req JobRequest) *Job {
	return &Job{
		id:        id,
		req:       req,
		cacheKey:  req.CacheKey(),
		submitted: time.Now(),
		state:     StateQueued,
		total:     req.WarmupCycles + req.MeasureCycles,
		notify:    make(chan struct{}),
	}
}

// newCachedJob returns an already-completed job serving a cached result.
func newCachedJob(id string, req JobRequest, res *Result) *Job {
	j := newJob(id, req)
	j.state = StateCompleted
	j.started, j.finished = j.submitted, j.submitted
	j.done = j.total
	j.epochs = res.Epochs
	j.result = res
	j.cacheHit = true
	close(j.notify)
	return j
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Request returns the submission the job runs.
func (j *Job) Request() JobRequest { return j.req }

// CacheKey returns the content address of the job's result.
func (j *Job) CacheKey() string { return j.cacheKey }

// wake closes and replaces the notify channel, releasing every follower.
// Callers hold j.mu.
func (j *Job) wake() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// markRunning transitions queued → running; it reports false when the
// job is already terminal (e.g. canceled before a worker claimed it).
func (j *Job) markRunning() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.wake()
	return true
}

// markRequeued transitions running → queued: the job's lease expired or
// its attempt failed transiently, and it goes back on the queue for the
// next worker. Reports false when the job is not currently running
// (terminal states stay terminal — a requeue must never resurrect a
// completed job).
func (j *Job) markRequeued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateRunning {
		return false
	}
	j.state = StateQueued
	j.wake()
	return true
}

// setWorker records which fleet worker holds the job's lease.
func (j *Job) setWorker(worker string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.worker = worker
}

// Worker returns the fleet worker holding (or last holding) the job.
func (j *Job) Worker() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.worker
}

// beginAttempt records one more execution attempt, clearing any epochs a
// previous failed attempt streamed (the new run re-emits the series from
// the start; bit-exact determinism makes it the same series).
func (j *Job) beginAttempt() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.attempts++
	if j.attempts > 1 {
		j.epochs = j.epochs[:0]
	}
	return j.attempts
}

// Attempts returns how many execution attempts the job has made.
func (j *Job) Attempts() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.attempts
}

// completeFromCache finishes a still-pending job with a shared cached or
// store-recovered result, marking it a cache hit (no simulation ran for
// it in this process).
func (j *Job) completeFromCache(res *Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = StateCompleted
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.done = j.total
	j.epochs = res.Epochs
	j.result = res
	j.cacheHit = true
	j.wake()
}

// awaitTerminal blocks until the job reaches a terminal state. The
// sweep scheduler uses it to pace child admission.
func (j *Job) awaitTerminal() {
	for {
		j.mu.Lock()
		term := j.state.Terminal()
		ch := j.notify
		j.mu.Unlock()
		if term {
			return
		}
		<-ch
	}
}

// addEpoch appends a newly closed epoch sample (a RunHooks.OnEpoch
// callback) and wakes streaming followers.
func (j *Job) addEpoch(s metrics.Sample) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.epochs = append(j.epochs, s)
	j.wake()
}

// setProgress records cycles simulated so far (RunHooks.OnProgress).
func (j *Job) setProgress(done, total uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done, j.total = done, total
}

// finish moves the job to a terminal state, reporting whether this call
// performed the transition (false: the job was already terminal, and
// nothing changed — the caller must not count or journal a second
// terminal outcome). The final epoch series is replaced by the result's
// (ring-bounded) series on success so polls and streams agree with what
// the report renders.
func (j *Job) finish(state JobState, res *Result, err error) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.finished = time.Now()
	if j.started.IsZero() {
		j.started = j.finished
	}
	j.result = res
	j.err = err
	if res != nil {
		j.done = j.total
		j.epochs = res.Epochs
	}
	j.wake()
	return true
}

// setEstimate records the planner's analytic estimate for the child.
func (j *Job) setEstimate(est analytic.Estimate) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.estimate = &est
}

// Estimate returns the planner's analytic estimate, or nil when the job
// was never planned analytically.
func (j *Job) Estimate() *analytic.Estimate {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.estimate
}

// Result returns the completed result, or nil while the job is not
// successfully finished.
func (j *Job) Result() *Result {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result
}

// Err returns the job's terminal error, if any.
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the wire.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:             j.id,
		State:          j.state,
		SubmittedAt:    j.submitted,
		ProgressCycles: j.done,
		TotalCycles:    j.total,
		Epochs:         len(j.epochs),
		Attempts:       j.attempts,
		CacheHit:       j.cacheHit,
		CacheKey:       j.cacheKey,
		Sweep:          j.sweepID,
		Label:          j.label,
		Worker:         j.worker,
		Recovered:      j.recovered,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}

// epochsAfter returns the epoch samples recorded after the first n, a
// channel that closes on the next state change, and whether the job is
// terminal. Streaming handlers loop on it: drain the new samples, then
// either stop (terminal, nothing pending) or block on the channel.
func (j *Job) epochsAfter(n int) ([]metrics.Sample, <-chan struct{}, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []metrics.Sample
	if n < len(j.epochs) {
		out = append(out, j.epochs[n:]...)
	}
	return out, j.notify, j.state.Terminal()
}
