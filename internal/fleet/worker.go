package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
)

// ExecuteFunc runs one leased job: it receives the strict-canonical
// request document and returns the encoded artifact bytes. onProgress
// reports chunked-runner progress (measured cycles done / total) and is
// safe to call from the execution goroutine; the worker forwards the
// latest values with each heartbeat. A returned error fails the job; a
// panic inside Execute is recovered by the worker and reported as a
// transient failure.
type ExecuteFunc func(ctx context.Context, request json.RawMessage, onProgress func(done, total uint64)) ([]byte, error)

// Worker is the stateless pull-loop half of the fleet protocol:
// acquire a lease, execute, heartbeat while running, upload, repeat.
// It owns no durable state — every fact that matters lives on the
// coordinator, so a worker process is safe to kill at any instant.
type Worker struct {
	// ID names this worker in leases, journal entries, and logs.
	ID string
	// Client reaches the coordinator (Base must be set).
	Client *cliutil.HTTPClient
	// Execute runs a leased job. Required.
	Execute ExecuteFunc
	// AcquireWait is the long-poll budget per acquire; 0 means 2s.
	AcquireWait time.Duration
	// Backoff paces retries when the coordinator is unreachable or has
	// no work (cliutil defaults apply).
	Backoff cliutil.Backoff
	// Log receives lifecycle events; nil uses slog.Default().
	Log *slog.Logger

	// heartbeatEvery overrides the ttl/3 heartbeat cadence in tests.
	heartbeatEvery time.Duration
}

func (w *Worker) log() *slog.Logger {
	if w.Log != nil {
		return w.Log
	}
	return slog.Default()
}

func (w *Worker) acquireWait() time.Duration {
	if w.AcquireWait > 0 {
		return w.AcquireWait
	}
	return 2 * time.Second
}

// Run pulls and executes jobs until ctx is canceled. Cancellation
// drains: the in-flight job finishes and uploads before Run returns,
// so SIGTERM never wastes a lease. kill abandons immediately — the
// in-flight execution is canceled and its lease left to expire; pass
// context.Background() to disable. Run only returns an error when the
// worker is misconfigured; operational failures are logged and retried.
func (w *Worker) Run(ctx, kill context.Context) error {
	if w.ID == "" || w.Client == nil || w.Execute == nil {
		return fmt.Errorf("fleet: worker needs ID, Client, and Execute")
	}
	log := w.log().With("worker", w.ID)
	log.Info("worker joining", "coordinator", w.Client.Base)
	idle := 0
	for {
		if ctx.Err() != nil || kill.Err() != nil {
			log.Info("worker draining, no lease in flight")
			return nil
		}
		grant, err := w.acquire(ctx)
		if err != nil {
			if ctx.Err() != nil {
				log.Info("worker draining, no lease in flight")
				return nil
			}
			idle++
			delay := w.Backoff.Delay(idle, nil)
			log.Warn("acquire failed, backing off", "err", err, "backoff", delay.Round(time.Millisecond))
			if !sleepCtx(ctx, delay) {
				return nil
			}
			continue
		}
		if grant == nil { // no work
			idle++
			if !sleepCtx(ctx, w.Backoff.Delay(idle, nil)) {
				log.Info("worker draining, no lease in flight")
				return nil
			}
			continue
		}
		idle = 0
		w.runLease(kill, grant, log)
	}
}

// acquire asks for one lease. A nil grant with nil error means the
// coordinator had no runnable work (204).
func (w *Worker) acquire(ctx context.Context) (*Grant, error) {
	var g Grant
	status, err := w.Client.DoJSON(ctx, http.MethodPost, "/v1/leases",
		AcquireRequest{WorkerID: w.ID, WaitMillis: w.acquireWait().Milliseconds()}, &g)
	if err != nil {
		return nil, err
	}
	if status == http.StatusNoContent {
		return nil, nil
	}
	if g.Token == "" {
		return nil, fmt.Errorf("fleet: acquire returned status %d without a lease", status)
	}
	return &g, nil
}

// runLease executes one granted job to resolution: heartbeats while
// Execute runs, then uploads the artifact or reports the failure. The
// lease is already ours, so drain (ctx) does not interrupt this — only
// kill does, by canceling the execution context.
func (w *Worker) runLease(kill context.Context, g *Grant, log *slog.Logger) {
	log = log.With("lease", g.Token, "job", g.JobID, "attempt", g.Attempt)
	if g.Label != "" {
		log = log.With("label", g.Label)
	}
	log.Info("lease acquired", "ttl", time.Duration(g.TTLMillis)*time.Millisecond)

	// execCtx governs the execution; the heartbeat loop cancels it when
	// the coordinator says the lease is gone (our work would be wasted).
	execCtx, cancelExec := context.WithCancel(kill)
	defer cancelExec()

	var progressDone, progressTotal atomic.Uint64
	hbDone := make(chan struct{})
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		w.heartbeatLoop(execCtx, cancelExec, g, &progressDone, &progressTotal, hbDone, log)
	}()

	res := cliutil.RunTask(cliutil.Task{Name: g.JobID, Run: func() error {
		artifact, err := w.Execute(execCtx, g.Request, func(done, total uint64) {
			progressDone.Store(done)
			progressTotal.Store(total)
		})
		if err != nil {
			return err
		}
		return w.upload(g, artifact, log)
	}})
	close(hbDone)
	hb.Wait()

	if !res.Failed() {
		return
	}
	if kill.Err() != nil {
		log.Warn("execution abandoned", "err", res.Err)
		return
	}
	// Execution (or upload) failed; report it so the coordinator can
	// requeue or fail the job without waiting for lease expiry. Panics
	// and lease-loss cancellations are transient — another worker (or a
	// later attempt) may succeed.
	transient := res.Panicked || execCtx.Err() != nil
	log.Warn("job failed", "err", res.Err, "transient", transient)
	var cr CompleteResponse
	_, err := w.Client.DoJSON(context.Background(), http.MethodPost,
		"/v1/leases/"+g.Token+"/complete",
		CompleteRequest{Error: res.Err.Error(), Transient: transient}, &cr)
	if err != nil {
		log.Warn("failure report not delivered; lease will expire", "err", err)
		return
	}
	log.Info("failure reported", "resolution", cr.Resolution)
}

// upload sends the artifact and logs the coordinator's resolution.
// A duplicate resolution is success: someone else's identical bytes
// won the race.
func (w *Worker) upload(g *Grant, artifact []byte, log *slog.Logger) error {
	sum := sha256.Sum256(artifact)
	req := CompleteRequest{Artifact: artifact, ArtifactSHA: hex.EncodeToString(sum[:])}
	var cr CompleteResponse
	// Deliberately not the drain context: once the work is done the
	// upload should finish even mid-shutdown.
	_, err := w.Client.DoJSON(context.Background(), http.MethodPost,
		"/v1/leases/"+g.Token+"/complete", req, &cr)
	if err != nil {
		if cliutil.HTTPStatus(err) == http.StatusGone {
			log.Warn("lease expired before upload; artifact discarded")
			return nil
		}
		return fmt.Errorf("upload artifact: %w", err)
	}
	log.Info("artifact uploaded", "resolution", cr.Resolution, "sha", req.ArtifactSHA[:12], "bytes", len(artifact))
	return nil
}

// heartbeatLoop renews the lease at a third of its TTL until the job
// finishes (done closed) or the lease is lost, in which case it cancels
// the execution context so the worker stops burning cycles on a job the
// coordinator has already requeued.
func (w *Worker) heartbeatLoop(ctx context.Context, cancelExec context.CancelFunc, g *Grant,
	progressDone, progressTotal *atomic.Uint64, done <-chan struct{}, log *slog.Logger) {
	every := w.heartbeatEvery
	if every <= 0 {
		every = time.Duration(g.TTLMillis) * time.Millisecond / 3
	}
	if every < 50*time.Millisecond {
		every = 50 * time.Millisecond
	}
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		var hr HeartbeatResponse
		_, err := w.Client.DoJSON(ctx, http.MethodPost,
			"/v1/leases/"+g.Token+"/heartbeat",
			HeartbeatRequest{
				ProgressCycles: progressDone.Load(),
				TotalCycles:    progressTotal.Load(),
			}, &hr)
		if err == nil {
			continue
		}
		switch cliutil.HTTPStatus(err) {
		case http.StatusGone, http.StatusNotFound:
			log.Warn("lease lost; abandoning execution", "err", err)
			cancelExec()
			return
		default:
			// Transient coordinator trouble: keep ticking, the client
			// already retried with backoff. If it stays down past the
			// TTL the lease expires server-side, which is the designed
			// outcome.
			log.Warn("heartbeat failed", "err", err)
		}
	}
}

// sleepCtx sleeps for d or until ctx is done; false means canceled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
