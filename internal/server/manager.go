package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analytic"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/jobstore"
	"repro/internal/metrics"
)

// Submission failure modes, mapped to HTTP statuses by the handlers
// (429 with Retry-After, and 503 respectively).
var (
	ErrQueueFull = errors.New("server: job queue full")
	ErrDraining  = errors.New("server: draining, not accepting jobs")
)

// stateRetrying is a journal-only state: the job failed transiently and
// will run again after backoff. It never becomes a Job's lifecycle
// state — on replay it reads as non-terminal, which is exactly right
// (the job is re-executed).
const stateRetrying = "retrying"

// Options tune a Manager. The zero value picks sensible daemon defaults.
type Options struct {
	// Workers caps concurrently running local simulations; 0 uses
	// GOMAXPROCS. Negative runs no local pool at all — a remote-only
	// coordinator whose queue is drained exclusively by fleet leases.
	Workers int
	// QueueDepth is the backlog of waiting jobs at which Submit refuses
	// with ErrQueueFull (HTTP 429). Sweep children, retries, requeues and
	// recovered jobs count toward it but are never refused. <= 0 is 64.
	QueueDepth int
	// JobTimeout cancels a run attempt that exceeds it (it stops
	// at the next epoch boundary); 0 disables the deadline. With retries
	// enabled the deadline is per attempt.
	JobTimeout time.Duration
	// CacheSize bounds the content-addressed result cache; <= 0 uses 256.
	// Use NoCache to disable caching.
	CacheSize int
	// Store, when set, makes the manager durable: every state transition
	// is journaled, completed results are written as content-addressed
	// artifacts, and NewManager replays the journal to recover jobs and
	// sweeps a previous process left behind.
	Store *jobstore.Store
	// Retries is how many times a transiently failed attempt (panic,
	// per-attempt timeout) is re-executed before the job fails for good.
	// 0 — the default — preserves fail-fast semantics.
	Retries int
	// RetryBackoff shapes the delay between attempts (full jitter: a
	// uniform draw from [0, Base·2^(attempt-1)] capped at Max). Zero
	// values pick the cliutil defaults.
	RetryBackoff cliutil.Backoff
	// LeaseTTL is the fleet lease heartbeat budget: a remote worker that
	// misses it has its lease expired and its job requeued. 0 uses
	// fleet.DefaultTTL.
	LeaseTTL time.Duration
	// Logger receives structured job lifecycle events; nil discards them.
	Logger *slog.Logger
}

// NoCache as Options.CacheSize disables the result cache.
const NoCache = -1

// Manager owns the job queue, the worker pool, the result cache and —
// when a Store is configured — the durability pipeline. Every
// simulation runs behind cliutil's recover barrier, so a panicking run
// becomes a failed job record instead of a dead daemon; with retries
// enabled it becomes a delayed second attempt first.
type Manager struct {
	opts       Options
	log        *slog.Logger
	cache      *resultCache
	est        *analytic.Estimator
	store      *jobstore.Store
	drainc     chan struct{} // closed when draining starts
	rootCtx    context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup
	reg        *metrics.Registry
	leases     *fleet.Table

	mu       sync.Mutex // guards the fields below
	jobs     map[string]*Job
	order    []string
	sweeps   map[string]*Sweep
	sweepOrd []string
	draining bool
	seq      uint64
	sweepSeq uint64
	ready    []*Job        // the run queue: runnable jobs, oldest first
	reserved int           // slots Submit holds while it journals
	readyc   chan struct{} // closed and replaced on every push and on drain

	submitted       atomic.Uint64
	completed       atomic.Uint64
	failed          atomic.Uint64
	canceled        atomic.Uint64
	retried         atomic.Uint64
	recovered       atomic.Uint64
	screened        atomic.Uint64
	cacheHits       atomic.Uint64
	cacheMisses     atomic.Uint64
	queueRejects    atomic.Uint64
	sweepsSubd      atomic.Uint64
	sweepsDone      atomic.Uint64
	estimates       atomic.Uint64
	estCalibrations atomic.Uint64
	estCacheHits    atomic.Uint64
	leasesRequeued  atomic.Uint64 // jobs put back on the queue by lease expiry
	leasesDup       atomic.Uint64 // duplicate completions resolved by hash
	running         atomic.Int64
	meanNanos       atomic.Uint64 // EWMA of job wall time, as float64 bits

	// beforeRun, when set, runs on the worker goroutine after a job is
	// claimed and before it simulates. Tests use it to hold a worker busy
	// deterministically (queue-full and drain scenarios).
	beforeRun func(*Job)
	// beforeAttempt, when set, runs inside the recover barrier at the
	// start of every attempt. Tests use it to inject transient faults
	// (panics) on chosen attempts.
	beforeAttempt func(j *Job, attempt int) error
	// onTerminal, when set, runs the moment markTerminal turns a job's
	// in-memory state terminal, before anything is counted or journaled.
	// Tests use it to observe what is already published at that instant.
	onTerminal func(*Job)
}

// NewManager starts a manager: its workers are live and pulling from the
// queue when it returns. With Options.Store set it first replays the
// store's journal — completed jobs come back served from their
// artifacts, interrupted jobs and sweeps are re-executed — and an
// unreadable journal is an error (a durable daemon must not silently
// forget history). Stop the manager with Drain (graceful) or Close.
func NewManager(opts Options) (*Manager, error) {
	switch {
	case opts.Workers < 0:
		opts.Workers = 0 // remote-only: fleet leases drain the queue
	case opts.Workers == 0:
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	cacheSize := opts.CacheSize
	switch {
	case cacheSize == NoCache:
		cacheSize = 0
	case cacheSize <= 0:
		cacheSize = 256
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		log:        log,
		cache:      newResultCache(cacheSize),
		store:      opts.Store,
		drainc:     make(chan struct{}),
		readyc:     make(chan struct{}),
		rootCtx:    ctx,
		rootCancel: cancel,
		jobs:       make(map[string]*Job),
		sweeps:     make(map[string]*Sweep),
		est:        analytic.NewEstimator(),
	}
	m.reg = metrics.NewRegistry()
	counter := func(name string, v *atomic.Uint64) {
		m.reg.CounterFunc(name, v.Load)
	}
	counter("server.jobs.submitted", &m.submitted)
	counter("server.jobs.completed", &m.completed)
	counter("server.jobs.failed", &m.failed)
	counter("server.jobs.canceled", &m.canceled)
	counter("server.jobs.retried", &m.retried)
	counter("server.jobs.recovered", &m.recovered)
	counter("server.cache.hits", &m.cacheHits)
	counter("server.cache.misses", &m.cacheMisses)
	counter("server.queue.rejects", &m.queueRejects)
	counter("server.sweeps.submitted", &m.sweepsSubd)
	counter("server.sweeps.completed", &m.sweepsDone)
	counter("server.jobs.screened", &m.screened)
	counter("server.estimates.requested", &m.estimates)
	counter("server.estimates.calibrations", &m.estCalibrations)
	counter("server.estimates.cache_hits", &m.estCacheHits)
	m.reg.GaugeFunc("server.queue.depth", func() float64 { return float64(m.queueLen()) })
	m.reg.GaugeFunc("server.jobs.running", func() float64 { return float64(m.running.Load()) })
	m.reg.GaugeFunc("server.cache.entries", func() float64 { return float64(m.cache.len()) })
	m.reg.GaugeFunc("server.estimates.cached", func() float64 { return float64(m.est.Len()) })
	if m.store != nil {
		m.reg.GaugeFunc("server.store.artifacts", func() float64 { return float64(m.store.CountArtifacts()) })
	}
	m.leases = fleet.NewTable(opts.LeaseTTL)
	m.reg.CounterFunc("fleet.leases.granted", func() uint64 { return m.leases.Stats().Granted })
	m.reg.CounterFunc("fleet.leases.expired", func() uint64 { return m.leases.Stats().Expired })
	m.reg.CounterFunc("fleet.leases.completed", func() uint64 { return m.leases.Stats().Completed })
	m.reg.CounterFunc("fleet.heartbeats", func() uint64 { return m.leases.Stats().Heartbeats })
	counter("fleet.leases.requeued", &m.leasesRequeued)
	counter("fleet.leases.duplicates", &m.leasesDup)
	m.reg.GaugeFunc("fleet.leases.active", func() float64 { return float64(m.leases.ActiveCount()) })
	workerWindow := 3 * m.leases.TTL()
	if workerWindow < 15*time.Second {
		workerWindow = 15 * time.Second
	}
	m.reg.GaugeFunc("fleet.workers.connected", func() float64 {
		return float64(m.leases.WorkersConnected(workerWindow))
	})
	go m.leaseExpiryLoop()
	m.wg.Add(opts.Workers)
	for w := 0; w < opts.Workers; w++ {
		go m.worker()
	}
	if m.store != nil {
		if err := m.recoverFromStore(); err != nil {
			m.rootCancel()
			return nil, err
		}
	}
	return m, nil
}

// Registry exposes the manager's operational metrics (the /metrics
// endpoint snapshots it).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// Draining reports whether the manager has stopped accepting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every known job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Sweep looks a sweep up by ID.
func (m *Manager) Sweep(id string) (*Sweep, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sweeps[id]
	return s, ok
}

// Sweeps returns every known sweep in submission order.
func (m *Manager) Sweeps() []*Sweep {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Sweep, 0, len(m.sweepOrd))
	for _, id := range m.sweepOrd {
		out = append(out, m.sweeps[id])
	}
	return out
}

// journal appends a store entry; without a store it is a no-op. Journal
// failures are logged, not fatal — the daemon keeps serving, it just
// loses durability for that transition.
func (m *Manager) journal(e jobstore.Entry) {
	if m.store == nil {
		return
	}
	if err := m.store.Append(e); err != nil {
		m.log.Error("journal append failed", "kind", e.Kind, "id", e.ID, "state", e.State, "err", err)
	}
}

// journalJob appends a plain state transition for a job.
func (m *Manager) journalJob(j *Job, state string, err error) {
	e := jobstore.Entry{Kind: jobstore.KindJob, ID: j.id, State: state,
		Sweep: j.sweepID, Label: j.label, CacheKey: j.cacheKey, Attempt: j.Attempts()}
	if err != nil {
		e.Error = err.Error()
	}
	m.journal(e)
}

// Submit validates nothing (callers decode+validate the request) and
// enqueues a job, serving it straight from the result cache when the
// content address hits. ErrQueueFull and ErrDraining report backpressure
// and shutdown respectively. An accepted job reserves its slot, then
// journals queued, then becomes runnable: no worker can claim a job
// whose creation is not yet on disk, and a refusal journals nothing.
func (m *Manager) Submit(req JobRequest) (*Job, error) {
	key := req.CacheKey()
	if res, ok := m.cache.get(key); ok {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return nil, ErrDraining
		}
		j := newCachedJob(m.nextIDLocked(), req, res)
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.mu.Unlock()
		m.submitted.Add(1)
		m.cacheHits.Add(1)
		m.journal(jobstore.Entry{Kind: jobstore.KindJob, ID: j.id, State: string(StateCompleted),
			CacheKey: key, Request: marshalRequest(req)})
		m.log.Info("job cache hit", "job", j.id, "key", key)
		return j, nil
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	if len(m.ready)+m.reserved >= m.opts.QueueDepth {
		m.mu.Unlock()
		m.queueRejects.Add(1)
		m.log.Warn("job rejected: queue full", "depth", m.opts.QueueDepth)
		return nil, ErrQueueFull
	}
	m.reserved++
	j := newJob(m.nextIDLocked(), req)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.mu.Unlock()
	m.submitted.Add(1)
	m.cacheMisses.Add(1)
	m.journal(jobstore.Entry{Kind: jobstore.KindJob, ID: j.id, State: string(StateQueued),
		CacheKey: key, Request: marshalRequest(req)})
	m.push(j, true)
	m.log.Info("job queued", "job", j.id, "key", key,
		"policy", j.req.Config.PolicyName, "mix", j.req.Config.MixID+1)
	return j, nil
}

// marshalRequest renders a request for its creation journal entry.
func marshalRequest(req JobRequest) json.RawMessage {
	blob, err := json.Marshal(req)
	if err != nil {
		return nil // recovery will fail the job; better than a corrupt entry
	}
	return blob
}

// SubmitSweep expands a validated spec into child jobs sharing a sweep
// ID and starts the sweep's scheduler, which admits children into the
// execution queue under the spec's concurrency cap. Children whose
// content address hits the cache complete immediately without running.
func (m *Manager) SubmitSweep(spec SweepSpec) (*Sweep, error) {
	children, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	specRaw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("sweep spec: %w", err)
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrDraining
	}
	m.sweepSeq++
	sw := &Sweep{
		id:      fmt.Sprintf("sweep-%06d", m.sweepSeq),
		spec:    spec,
		specRaw: specRaw,
		created: time.Now(),
		state:   SweepRunning,
	}
	jobs := make([]*Job, 0, len(children))
	var hits int
	for _, c := range children {
		var j *Job
		if res, ok := m.cache.get(c.Request.CacheKey()); ok {
			j = newCachedJob(m.nextIDLocked(), c.Request, res)
			hits++
		} else {
			j = newJob(m.nextIDLocked(), c.Request)
		}
		j.sweepID, j.label = sw.id, c.Label
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		sw.children = append(sw.children, j.id)
		jobs = append(jobs, j)
	}
	m.sweeps[sw.id] = sw
	m.sweepOrd = append(m.sweepOrd, sw.id)
	m.wg.Add(1) // under m.mu while not draining, so it cannot race Drain's Wait
	m.mu.Unlock()

	m.sweepsSubd.Add(1)
	m.submitted.Add(uint64(len(jobs)))
	m.cacheHits.Add(uint64(hits))
	m.cacheMisses.Add(uint64(len(jobs) - hits))
	m.journal(jobstore.Entry{Kind: jobstore.KindSweep, ID: sw.id,
		State: string(SweepRunning), Spec: specRaw, Children: sw.Children()})
	for _, j := range jobs {
		state := string(StateQueued)
		if j.State() == StateCompleted {
			state = string(StateCompleted)
		}
		m.journal(jobstore.Entry{Kind: jobstore.KindJob, ID: j.id, State: state,
			Sweep: sw.id, Label: j.label, CacheKey: j.cacheKey, Request: marshalRequest(j.req)})
	}
	m.log.Info("sweep submitted", "sweep", sw.id, "name", spec.Name,
		"children", len(jobs), "cache_hits", hits, "concurrency", spec.concurrency())
	go m.runSweep(sw, jobs)
	return sw, nil
}

// nextIDLocked mints the next job ID; the caller holds m.mu.
func (m *Manager) nextIDLocked() string {
	m.seq++
	return fmt.Sprintf("job-%06d", m.seq)
}

// runSweep is the per-sweep scheduler goroutine: it admits children
// into the run queue at most `concurrency` at a time (sweeps pace
// themselves; QueueDepth never refuses them) and finalizes the sweep
// when every child is terminal. A drain cancels children not yet
// admitted; the sweep ends canceled and a restart over the same store
// resumes it.
func (m *Manager) runSweep(sw *Sweep, jobs []*Job) {
	defer m.wg.Done()
	if sw.spec.Plan == PlanAnalytic {
		m.planSweep(sw, jobs)
	}
	sem := make(chan struct{}, sw.spec.concurrency())
	var watchers sync.WaitGroup
	aborted := false
	for _, j := range jobs {
		if j.State().Terminal() { // cache hit or recovered-complete child
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-m.drainc: // push cancels the child
		}
		if !m.push(j, false) {
			aborted = true
			continue
		}
		watchers.Add(1)
		go func(j *Job) {
			defer watchers.Done()
			j.awaitTerminal()
			<-sem
		}(j)
	}
	watchers.Wait()
	state := SweepCompleted
	if aborted {
		state = SweepCanceled
	}
	if sw.finalize(state) {
		m.journal(jobstore.Entry{Kind: jobstore.KindSweep, ID: sw.id, State: string(state)})
		if state == SweepCompleted {
			m.sweepsDone.Add(1)
		}
		m.log.Info("sweep finished", "sweep", sw.id, "state", state, "children", len(sw.Children()))
	}
}

// planSweep is the coarse-to-fine screen: it estimates every pending
// child with the analytic fast path (in parallel, at the sweep's own
// concurrency cap) and retires — state "screened", never simulated —
// each child that another child safely dominates on the lifetime × IPC
// plane beyond the estimates' combined error bounds. The planner fails
// open: a child whose estimate errors (or is refused by a drain) is
// simply kept, because screening must never cost a result it cannot
// prove redundant. Estimates are attached to kept children too, so the
// sweep status reports analytic-vs-simulated deltas per child.
func (m *Manager) planSweep(sw *Sweep, jobs []*Job) {
	ests := make([]*analytic.Estimate, len(jobs))
	tasks := make([]cliutil.Task, 0, len(jobs))
	for i, j := range jobs {
		if j.State().Terminal() {
			continue
		}
		i, j := i, j
		tasks = append(tasks, cliutil.Task{Name: "plan/" + j.id, Run: func() error {
			resp, err := m.Estimate(m.rootCtx, sw.spec.planSpec(j.req))
			if err != nil {
				return err
			}
			est := resp.Estimate
			ests[i] = &est
			j.setEstimate(est)
			return nil
		}})
	}
	if len(tasks) == 0 {
		return
	}
	results := cliutil.RunTasks(tasks, cliutil.PoolConfig{Workers: sw.spec.concurrency()})
	for _, r := range results {
		if r.Failed() {
			m.log.Warn("sweep plan estimate failed, keeping child", "sweep", sw.id,
				"task", r.Name, "err", r.Err)
		}
	}

	idx := make([]int, 0, len(jobs))
	pts := make([]experiments.ParetoPoint, 0, len(jobs))
	for i, est := range ests {
		if est == nil {
			continue
		}
		life := est.LifetimeMonths
		if est.Censored {
			life = math.Inf(1)
		}
		pts = append(pts, experiments.ParetoPoint{
			Lifetime:       life,
			IPC:            est.YoungIPC,
			LifetimeMargin: est.LifetimeErrorBound,
			IPCMargin:      est.IPCErrorBound,
		})
		idx = append(idx, i)
	}
	keep := experiments.ParetoFrontier(pts)
	screened := 0
	for k, onFrontier := range keep {
		if onFrontier {
			continue
		}
		m.finishJob(jobs[idx[k]], StateScreened, nil, cliutil.TaskResult{})
		screened++
	}
	m.log.Info("sweep planned", "sweep", sw.id, "estimated", len(pts),
		"screened", screened, "kept", len(pts)-screened)
}

// push is the one way a job becomes runnable; it never blocks or
// refuses for capacity. reserved says j fills a slot Submit reserved,
// which takers wait for even while draining. Any other push into a
// draining manager cancels the job instead and reports false.
func (m *Manager) push(j *Job, reserved bool) bool {
	m.mu.Lock()
	if reserved {
		m.reserved--
	} else if m.draining {
		m.mu.Unlock()
		m.finishJob(j, StateCanceled, ErrDraining, cliutil.TaskResult{})
		return false
	}
	m.ready = append(m.ready, j)
	m.wakeLocked()
	m.mu.Unlock()
	return true
}

// take is the one way a job leaves the run queue: it claims the oldest
// ready job, waiting until stop closes (nil waits forever) and
// returning nil then. Draining, a drainQueue taker (a local worker or a
// remote-only Drain) empties the queue and its reserved slots before
// getting nil; any other taker (a fleet lease) gets nil at once.
func (m *Manager) take(stop <-chan struct{}, drainQueue bool) *Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.draining && (!drainQueue || len(m.ready) == 0 && m.reserved == 0) {
			return nil
		}
		if len(m.ready) > 0 {
			j := m.ready[0]
			m.ready = m.ready[1:]
			return j
		}
		wake := m.readyc
		m.mu.Unlock()
		select {
		case <-wake:
			m.mu.Lock()
		case <-stop:
			m.mu.Lock()
			return nil
		}
	}
}

// wakeLocked releases every taker blocked in take; the caller holds m.mu.
func (m *Manager) wakeLocked() {
	close(m.readyc)
	m.readyc = make(chan struct{})
}

// queueLen returns how many jobs wait in the run queue.
func (m *Manager) queueLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.ready)
}

// Drain stops accepting submissions, lets queued and running jobs finish,
// and returns when the workers are idle. If ctx expires first the
// remaining jobs are canceled (they stop at the next epoch boundary) and
// Drain still waits for the workers to observe that before returning the
// context error.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drainc)
		m.wakeLocked()
	}
	m.mu.Unlock()
	// A remote-only coordinator has no local pool to drain the queue,
	// and fleet acquires are refused once draining — cancel what is
	// still ready so sweep watchers (and therefore m.wg) can finish.
	// In-flight leases still complete through CompleteLease or expire
	// into a draining requeue, which also cancels.
	if m.opts.Workers == 0 {
		for j := m.take(nil, true); j != nil; j = m.take(nil, true) {
			m.finishJob(j, StateCanceled, ErrDraining, cliutil.TaskResult{})
		}
	}
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.rootCancel()
		<-done
		return ctx.Err()
	}
}

// Close shuts the manager down without grace: in-flight jobs are
// canceled at their next epoch boundary. Safe to call after Drain.
func (m *Manager) Close() {
	m.rootCancel()
	m.Drain(context.Background())
}

// worker runs jobs off the run queue until a drain has emptied it;
// graceful drains never strand a queued job (see take and push).
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := m.take(nil, true); j != nil; j = m.take(nil, true) {
		m.runJob(j)
	}
}

// observeDuration folds a completed run's wall time into the EWMA the
// Retry-After estimate reads.
func (m *Manager) observeDuration(d time.Duration) {
	const alpha = 0.3
	for {
		old := m.meanNanos.Load()
		mean := float64(d)
		if old != 0 {
			mean = (1-alpha)*math.Float64frombits(old) + alpha*float64(d)
		}
		if m.meanNanos.CompareAndSwap(old, math.Float64bits(mean)) {
			return
		}
	}
}

// RetryAfterSeconds estimates how long a rejected submitter should wait
// before the queue has space: the backlog ahead of it divided across
// the workers, at the observed mean job duration, clamped to [1, 120].
// Before any job has completed it answers the floor.
func (m *Manager) RetryAfterSeconds() int {
	mean := math.Float64frombits(m.meanNanos.Load())
	if mean <= 0 {
		return 1
	}
	backlog := float64(m.queueLen() + 1)
	workers := m.opts.Workers
	if workers < 1 {
		workers = 1 // remote-only: assume at least one fleet worker
	}
	secs := int(math.Ceil(mean * backlog / float64(workers) / float64(time.Second)))
	if secs < 1 {
		secs = 1
	}
	if secs > 120 {
		secs = 120
	}
	return secs
}

// runJob executes one attempt of a job behind the recover barrier. A
// transient failure (panic, per-attempt timeout) within the retry
// budget goes back on the queue through requeueJob — the same path
// lease expiry uses — so the worker is free during the backoff and the
// retry/requeue accounting cannot drift between the two.
func (m *Manager) runJob(j *Job) {
	if hook := m.beforeRun; hook != nil {
		hook(j)
	}
	if !j.markRunning() {
		return
	}
	m.running.Add(1)
	defer m.running.Add(-1)
	m.journalJob(j, string(StateRunning), nil)

	attempt := j.beginAttempt()
	start := time.Now()
	ctx := m.rootCtx
	cancel := context.CancelFunc(func() {})
	if m.opts.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, m.opts.JobTimeout)
	}

	var res *Result
	outcome := cliutil.RunTask(cliutil.Task{
		Name: j.id,
		Run: func() error {
			if hook := m.beforeAttempt; hook != nil {
				if err := hook(j, attempt); err != nil {
					return err
				}
			}
			r, err := m.simulate(ctx, j)
			res = r
			return err
		},
	})
	cancel()

	err := outcome.Err
	if err == nil {
		m.publishCompletion(j, res, completion{start: start})
		return
	}
	if errors.Is(err, context.Canceled) {
		m.finishJob(j, StateCanceled, err, outcome)
		return
	}
	transient := outcome.Panicked || errors.Is(err, context.DeadlineExceeded)
	if transient && attempt < m.opts.Retries+1 && m.rootCtx.Err() == nil {
		if m.requeueJob(j, requeueRetry, attempt, "", "", err) {
			return
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("job timeout %v exceeded after %d attempt(s)", m.opts.JobTimeout, attempt)
	}
	m.finishJob(j, StateFailed, err, outcome)
}

// requeueReason distinguishes why a running job goes back on the queue.
type requeueReason int

const (
	// requeueRetry: the attempt failed transiently and the retry budget
	// allows another (jittered backoff applies).
	requeueRetry requeueReason = iota
	// requeueLease: the job's fleet lease expired; requeue immediately
	// (the backoff already happened — it was the missed TTL).
	requeueLease
)

// requeueJob is the single path every requeue takes — local retry
// backoff and fleet lease expiry alike — so the counters, journal
// entries, and backoff accounting cannot drift between them. It flips
// the job running → queued, journals the transition (with the worker
// and lease for expiries), and pushes it after the reason's delay
// without holding a pool worker; a draining manager cancels it instead.
// False means the job was not running anymore (already terminal, or
// racing another requeue) and nothing was done.
func (m *Manager) requeueJob(j *Job, reason requeueReason, attempt int, worker, lease string, cause error) bool {
	if !j.markRequeued() {
		return false
	}
	var delay time.Duration
	entry := jobstore.Entry{Kind: jobstore.KindJob, ID: j.id,
		Sweep: j.sweepID, Label: j.label, CacheKey: j.cacheKey,
		Attempt: attempt, Worker: worker, Lease: lease}
	if cause != nil {
		entry.Error = cause.Error()
	}
	switch reason {
	case requeueRetry:
		delay = m.opts.RetryBackoff.Delay(attempt, nil)
		m.retried.Add(1)
		entry.State = stateRetrying
		m.log.Warn("job attempt failed, retrying", "job", j.id, "sweep", j.sweepID,
			"worker", worker, "attempt", attempt, "of", m.opts.Retries+1,
			"backoff", delay.Round(time.Millisecond), "err", cause)
	case requeueLease:
		m.leasesRequeued.Add(1)
		entry.State = stateRequeued
		m.log.Warn("job requeued", "job", j.id, "sweep", j.sweepID,
			"worker", worker, "lease", lease, "attempt", attempt, "err", cause)
	}
	m.journal(entry)

	// The push goroutine joins m.wg so Drain waits for it — but only
	// when the manager is not already draining (Add would race Drain's
	// Wait); a draining manager cancels the job on the spot, as push
	// would.
	m.mu.Lock()
	draining := m.draining
	if !draining {
		m.wg.Add(1)
	}
	m.mu.Unlock()
	if draining {
		m.finishJob(j, StateCanceled, ErrDraining, cliutil.TaskResult{})
		return true
	}
	go func() {
		defer m.wg.Done()
		select {
		case <-time.After(delay):
			m.push(j, false)
		case <-m.rootCtx.Done():
			m.finishJob(j, StateCanceled, context.Canceled, cliutil.TaskResult{})
		}
	}()
	return true
}

// completion describes where a successful run came from. A fleet
// upload carries its verified artifact bytes, worker and lease; a local
// run leaves them empty and its result is encoded on publication.
type completion struct {
	blob   []byte    // verified upload; nil to encode the result
	worker string    // fleet worker; empty for the local pool
	lease  string    // fleet lease token; empty for the local pool
	start  time.Time // attempt start, for the Retry-After estimate
}

// publishCompletion is the one path a successful run takes to the
// completed state, wherever it ran. The steps keep a fixed order: the
// artifact into the store, the result into the cache, the in-memory
// transition, then — only when this call made the transition — the
// counter, the duration sample, the journal entry and the log line.
// Artifact before journal means a journaled completion implies the
// artifact exists (at-least-once execution, idempotent artifacts);
// artifact and cache before j.finish mean an observer who sees the job
// completed can already read its artifact, and a resubmission of its
// key hits the cache. False means the job was already terminal (a
// racing duplicate completion, or a cancel that won) and nothing was
// counted or journaled; the artifact and cache entry it put are
// byte-identical to the winner's under content addressing.
func (m *Manager) publishCompletion(j *Job, res *Result, c completion) bool {
	sha := m.storeArtifact(j, res, c.blob)
	m.cache.put(j.cacheKey, res)
	if !m.markTerminal(j, StateCompleted, res, nil) {
		return false
	}
	m.completed.Add(1)
	m.observeDuration(time.Since(c.start))
	m.journal(jobstore.Entry{Kind: jobstore.KindJob, ID: j.id, State: string(StateCompleted),
		Sweep: j.sweepID, Label: j.label, CacheKey: j.cacheKey,
		Attempt: j.Attempts(), ArtifactSHA: sha, Worker: c.worker, Lease: c.lease})
	m.log.Info("job completed", "job", j.id, "sweep", j.sweepID, "worker", c.worker, "lease", c.lease,
		"mean_ipc", res.Summary.MeanIPC, "epochs", len(res.Epochs), "attempts", j.Attempts())
	return true
}

// markTerminal flips the job's in-memory state through j.finish and,
// when this call made the transition, fires the onTerminal hook at that
// instant.
func (m *Manager) markTerminal(j *Job, state JobState, res *Result, err error) bool {
	if !j.finish(state, res, err) {
		return false
	}
	if hook := m.onTerminal; hook != nil {
		hook(j)
	}
	return true
}

// storeArtifact writes the job's artifact — blob, or the result's
// encoding when blob is nil — and returns its SHA-256, or "" when the
// manager has no store or the write failed (recovery then re-runs the
// job instead of loading a blob that is not there).
func (m *Manager) storeArtifact(j *Job, res *Result, blob []byte) string {
	if m.store == nil {
		return ""
	}
	if blob == nil {
		var err error
		if blob, err = encodeResult(j.cacheKey, res); err != nil {
			m.log.Error("artifact encode failed", "job", j.id, "key", j.cacheKey, "err", err)
			return ""
		}
	}
	sha, err := m.store.PutArtifact(j.cacheKey, blob)
	if err != nil {
		m.log.Error("artifact write failed", "job", j.id, "key", j.cacheKey, "err", err)
		return ""
	}
	return sha
}

// finishJob publishes an unsuccessful terminal state — canceled,
// screened or failed — with its counter, journal entry and log line.
// Success goes through publishCompletion.
func (m *Manager) finishJob(j *Job, state JobState, err error, outcome cliutil.TaskResult) {
	if !m.markTerminal(j, state, nil, err) {
		// Already terminal: a racing completion (remote upload vs local
		// re-run) or a cancel chasing a finished job. The first terminal
		// state won; counting or journaling a second would lie.
		return
	}
	switch state {
	case StateCanceled:
		m.canceled.Add(1)
		m.journalJob(j, string(StateCanceled), err)
		m.log.Info("job canceled", "job", j.id, "sweep", j.sweepID)
	case StateScreened:
		m.screened.Add(1)
		m.journalJob(j, string(StateScreened), nil)
		m.log.Info("job screened by analytic planner", "job", j.id, "sweep", j.sweepID, "label", j.label)
	default:
		m.failed.Add(1)
		m.journalJob(j, string(StateFailed), err)
		m.log.Error("job failed", "job", j.id, "sweep", j.sweepID,
			"err", err, "panicked", outcome.Panicked, "attempts", j.Attempts())
	}
}

// simulate builds and measures the job's run, streaming epochs and
// progress into the job as it goes.
func (m *Manager) simulate(ctx context.Context, j *Job) (*Result, error) {
	sys, err := j.req.Config.Build()
	if err != nil {
		return nil, err
	}
	hooks := core.RunHooks{OnEpoch: j.addEpoch, OnProgress: j.setProgress}
	return core.RunWindow(ctx, sys, j.req.Capacity, j.req.WarmupCycles, j.req.MeasureCycles, hooks)
}

// recoverFromStore replays the journal into live state: completed jobs
// come back served from their artifacts (hash-verified when the journal
// recorded a digest), interrupted jobs are pushed to run again from
// their recorded requests — the simulator is bit-exact deterministic, so
// the re-run produces the same artifact bytes — and unfinished sweeps
// resume scheduling, skipping children that already have results.
func (m *Manager) recoverFromStore() error {
	entries, err := jobstore.Replay(m.store.Root())
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	red := jobstore.Reduce(entries)

	sweepState := make(map[string]string, len(red.Sweeps))
	for _, sr := range red.Sweeps {
		sweepState[sr.ID] = sr.State
	}

	requeued := 0
	for _, rec := range red.Jobs {
		if n, ok := parseSeq(rec.ID, "job"); ok && n > m.seq {
			m.seq = n
		}
		j, runnable := m.rebuildJob(rec, sweepState[rec.Sweep])
		m.mu.Lock()
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
		m.mu.Unlock()
		m.recovered.Add(1)
		if runnable && rec.Sweep == "" { // sweep children are re-admitted by their scheduler
			m.push(j, false)
			requeued++
		}
	}

	for _, sr := range red.Sweeps {
		if n, ok := parseSeq(sr.ID, "sweep"); ok && n > m.sweepSeq {
			m.sweepSeq = n
		}
		sw := &Sweep{id: sr.ID, created: time.Now(), children: append([]string(nil), sr.Children...)}
		spec, err := DecodeSweepSpec(sr.Spec)
		switch {
		case err != nil:
			// The journaled spec was validated before it was written, so
			// this is disk-level damage; the sweep cannot resume.
			m.log.Error("recovered sweep has an unreadable spec", "sweep", sr.ID, "err", err)
			sw.state, sw.finished = SweepCanceled, time.Now()
		case sr.State == string(SweepCompleted):
			sw.spec, sw.state, sw.finished = spec, SweepCompleted, time.Now()
		default:
			sw.spec, sw.state = spec, SweepRunning
		}
		m.mu.Lock()
		m.sweeps[sw.id] = sw
		m.sweepOrd = append(m.sweepOrd, sw.id)
		jobs := make([]*Job, 0, len(sw.children))
		for _, id := range sw.children {
			if j, ok := m.jobs[id]; ok {
				jobs = append(jobs, j)
			}
		}
		m.mu.Unlock()
		if sw.State() == SweepRunning {
			m.log.Info("resuming sweep", "sweep", sw.id, "children", len(jobs))
			m.wg.Add(1)
			go m.runSweep(sw, jobs)
		}
	}

	m.log.Info("journal replayed", "entries", len(entries),
		"jobs", len(red.Jobs), "sweeps", len(red.Sweeps), "requeued", requeued)
	return nil
}

// rebuildJob reconstructs one job from its reduced journal record,
// returning it plus whether it still needs to run. Completed jobs load
// their artifact (missing, corrupt or another key's → re-run); failed jobs stay
// failed; canceled standalone jobs stay canceled, but canceled children
// of an unfinished sweep re-run — the cancel came from a drain, and the
// resumed sweep still owes their results.
func (m *Manager) rebuildJob(rec *jobstore.JobRecord, ownerState string) (j *Job, runnable bool) {
	req, reqErr := DecodeJobRequest(rec.Request)
	if len(rec.Request) == 0 {
		reqErr = errors.New("journal holds no request document")
	}
	j = newJob(rec.ID, req)
	j.sweepID, j.label, j.recovered = rec.Sweep, rec.Label, true
	j.attempts = rec.Attempt
	if rec.CacheKey != "" {
		j.cacheKey = rec.CacheKey
	}
	if reqErr != nil {
		j.finish(StateFailed, nil, fmt.Errorf("unrecoverable: %w", reqErr))
		return j, false
	}
	switch rec.State {
	case string(StateCompleted):
		data, ok, err := m.store.GetArtifact(j.cacheKey, rec.ArtifactSHA)
		if err == nil && ok {
			// The key check matters when the journal recorded no digest
			// (cache-hit completions): the file under this key's name
			// must still be this key's artifact.
			var res *Result
			var key string
			if res, key, err = decodeResult(data); err == nil && key != j.cacheKey {
				err = fmt.Errorf("artifact holds key %s", key)
			}
			if err == nil {
				j.completeFromCache(res)
				m.cache.put(j.cacheKey, res)
				return j, false
			}
		}
		if err != nil {
			m.log.Warn("completed job's artifact unusable, re-running", "job", j.id, "key", j.cacheKey, "err", err)
		} else {
			m.log.Warn("completed job's artifact missing, re-running", "job", j.id, "key", j.cacheKey)
		}
		return j, true
	case string(StateFailed):
		j.finish(StateFailed, nil, errors.New(rec.Error))
		return j, false
	case string(StateScreened):
		// The planner's verdict is final: the dominating sibling's result
		// is (or will be) in the store, and re-screening after a restart
		// would re-run every calibration for nothing.
		j.finish(StateScreened, nil, nil)
		return j, false
	case string(StateCanceled):
		if rec.Sweep != "" && ownerState != string(SweepCompleted) {
			return j, true // drain-canceled child of a sweep we will resume
		}
		j.finish(StateCanceled, nil, errors.New(rec.Error))
		return j, false
	default:
		// queued, running, retrying, a checkpoint line from an older
		// journal, or a torn creation → run it
		return j, true
	}
}

// parseSeq extracts the numeric suffix of a "prefix-%06d" identifier.
func parseSeq(id, prefix string) (uint64, bool) {
	var n uint64
	if _, err := fmt.Sscanf(id, prefix+"-%d", &n); err != nil {
		return 0, false
	}
	return n, true
}

// SweepStatus assembles the wire form of a sweep, optionally with the
// per-child rows.
func (m *Manager) SweepStatus(sw *Sweep, withChildren bool) SweepStatus {
	state, created, finished, name, children := sw.snapshot()
	st := SweepStatus{
		ID:            sw.id,
		Name:          name,
		State:         state,
		CreatedAt:     created,
		TotalChildren: len(children),
	}
	if !finished.IsZero() {
		t := finished
		st.FinishedAt = &t
	}
	var ipcSum float64
	for _, id := range children {
		j, ok := m.Job(id)
		if !ok {
			continue
		}
		cs := j.Status()
		row := SweepChildStatus{ID: cs.ID, Label: cs.Label, State: cs.State,
			CacheHit: cs.CacheHit, Attempts: cs.Attempts, Error: cs.Error}
		if est := j.Estimate(); est != nil {
			ipc, life := est.YoungIPC, est.LifetimeMonths
			row.EstIPC, row.EstLifetimeMonths, row.EstCensored = &ipc, &life, est.Censored
		}
		switch cs.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateCompleted:
			st.Completed++
			if res := j.Result(); res != nil {
				ipc := res.Summary.MeanIPC
				ipcSum += ipc
				row.MeanIPC = &ipc
			}
		case StateFailed:
			st.Failed++
		case StateCanceled:
			st.Canceled++
		case StateScreened:
			st.Screened++
		}
		if cs.CacheHit {
			st.CacheHits++
		}
		if cs.Attempts > 1 {
			st.Retried++
		}
		if withChildren {
			st.Children = append(st.Children, row)
		}
	}
	if st.Completed > 0 {
		st.MeanIPC = ipcSum / float64(st.Completed)
	}
	return st
}
