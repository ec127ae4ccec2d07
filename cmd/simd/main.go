// Command simd is the simulation daemon: it serves the hybrid-LLC
// simulator over HTTP as queued jobs with live epoch streaming and a
// content-addressed result index.
//
//	simd -addr :8080 -workers 4 -queue 64
//
//	curl -s localhost:8080/v1/jobs -d '{"config":{"policy":"CP_SD"}}'
//	curl -s localhost:8080/v1/jobs/job-000001
//	curl -sN localhost:8080/v1/jobs/job-000001/epochs
//	curl -s localhost:8080/v1/estimate -d '{"config":{"policy":"CP_SD"}}'
//
// POST /v1/estimate is the synchronous analytic fast path: one short
// calibration simulation on the first query for a config, sub-millisecond
// cached answers after that (lifetime, young IPC, validated error
// bounds). It never replaces a simulation: every child of a
// POST /v1/sweeps expansion is simulated.
//
// Multi-node fleet mode: the daemon above doubles as a coordinator
// (add -remote-only to dedicate its queue to remote workers), and
//
//	simd -worker -join http://coordinator:8080
//
// runs a stateless pull-loop worker instead of a server: acquire a
// lease, execute the job through the same engine, heartbeat while it
// runs, upload the artifact, repeat. Workers hold no durable state —
// kill one at any instant and its lease expires on the coordinator,
// which requeues the job for the next worker.
//
// -pprof 127.0.0.1:6060 serves the runtime profiles (net/http/pprof)
// under /debug/pprof/ on a listener of their own, in both modes; the API
// listener never routes them. It is off by default.
//
// SIGINT/SIGTERM drains gracefully in both modes: the server stops
// accepting and lets jobs finish (up to -drain); a worker finishes and
// uploads its in-flight lease, then exits. A second signal cancels
// in-flight work at the next epoch boundary.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/fleet"
	"repro/internal/jobstore"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "concurrent local simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "waiting-job backlog at which POST /v1/jobs returns 429 (sweeps are paced, not refused)")
	jobTimeout := flag.Duration("jobtimeout", 0, "per-job deadline (0 = none)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown deadline")
	data := flag.String("data", "", "durable state directory (journal + artifacts); empty = in-memory only")
	retries := flag.Int("retries", 0, "re-run attempts for transiently failed jobs (panic/timeout)")
	remoteOnly := flag.Bool("remote-only", false, "run no local pool; fleet workers drain the queue")
	leaseTTL := flag.Duration("lease-ttl", 0, "fleet lease heartbeat budget (0 = 10s)")
	workerMode := flag.Bool("worker", false, "run as a fleet worker instead of a server (requires -join)")
	join := flag.String("join", "", "coordinator base URL for -worker mode")
	workerID := flag.String("worker-id", "", "worker identity in leases and logs (default hostname-pid)")
	logFormat := flag.String("log-format", "text", "log encoding: text or json")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof under /debug/pprof/ on this separate address (empty = off)")
	flag.Parse()

	log, err := newLogger(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slog.SetDefault(log)

	if *pprofAddr != "" {
		ln, err := servePprof(*pprofAddr)
		if err != nil {
			log.Error("pprof listener", "addr", *pprofAddr, "err", err)
			os.Exit(1)
		}
		log.Info("pprof listening", "addr", ln.Addr().String())
	}

	if *workerMode {
		os.Exit(runWorker(log, *join, *workerID, *drain))
	}

	var store *jobstore.Store
	if *data != "" {
		var err error
		store, err = jobstore.Open(*data)
		if err != nil {
			log.Error("opening data dir", "dir", *data, "err", err)
			os.Exit(1)
		}
		defer store.Close()
		log.Info("durable store open", "dir", *data, "artifacts", store.CountArtifacts())
	}
	poolWorkers := *workers
	if *remoteOnly {
		poolWorkers = -1
	}
	m, err := server.NewManager(server.Options{
		Workers:    poolWorkers,
		QueueDepth: *queue,
		JobTimeout: *jobTimeout,
		Store:      store,
		Retries:    *retries,
		LeaseTTL:   *leaseTTL,
		Logger:     log,
	})
	if err != nil {
		log.Error("recovering from data dir", "dir", *data, "err", err)
		os.Exit(1)
	}
	srv := &http.Server{Addr: *addr, Handler: server.NewHandler(m, log)}

	errc := make(chan error, 1)
	go func() {
		log.Info("simd listening", "addr", *addr, "queue", *queue, "remote_only", *remoteOnly)
		errc <- srv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		log.Info("shutting down", "signal", sig.String(), "drain", *drain)
	case err := <-errc:
		log.Error("listener failed", "err", err)
		m.Close()
		os.Exit(1)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		// A second signal abandons the grace period.
		<-sigc
		log.Warn("second signal: canceling in-flight jobs")
		cancel()
	}()
	if err := srv.Shutdown(ctx); err != nil {
		log.Warn("listener shutdown", "err", err)
	}
	if err := m.Drain(ctx); err != nil && !errors.Is(err, context.Canceled) {
		log.Warn("drain expired; in-flight jobs canceled", "err", err)
	}
	m.Close()
	log.Info("simd stopped")
}

// newLogger builds the process logger for -log-format.
func newLogger(format string) (*slog.Logger, error) {
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, nil)
	case "discard":
		h = slog.NewTextHandler(io.Discard, nil)
	default:
		return nil, fmt.Errorf("simd: -log-format %q (want text or json)", format)
	}
	return slog.New(h), nil
}

// servePprof listens on addr and serves the runtime profiles there, on
// a mux of their own, until the listener is closed. Importing
// net/http/pprof also registers them on http.DefaultServeMux, which simd
// never serves.
func servePprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go http.Serve(ln, mux)
	return ln, nil
}

// runWorker is -worker mode: a stateless fleet pull loop against the
// coordinator at joinURL. The first signal drains (the in-flight lease
// finishes and uploads); a second, or the drain deadline, abandons it —
// the coordinator's lease expiry requeues the job, so abandonment is
// safe, just slower.
func runWorker(log *slog.Logger, joinURL, id string, drain time.Duration) int {
	if joinURL == "" {
		log.Error("-worker requires -join <coordinator-url>")
		return 2
	}
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	w := &fleet.Worker{
		ID:      id,
		Client:  &cliutil.HTTPClient{Base: joinURL, Log: log},
		Execute: server.RunRequestArtifact,
		Log:     log,
	}

	drainCtx, stopDraining := context.WithCancel(context.Background())
	killCtx, kill := context.WithCancel(context.Background())
	defer kill()
	defer stopDraining()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		log.Info("draining: finishing in-flight lease", "signal", sig.String(), "deadline", drain)
		stopDraining()
		timer := time.NewTimer(drain)
		defer timer.Stop()
		select {
		case sig := <-sigc:
			log.Warn("second signal: abandoning in-flight lease", "signal", sig.String())
		case <-timer.C:
			log.Warn("drain deadline passed: abandoning in-flight lease")
		case <-killCtx.Done():
			return
		}
		kill()
	}()

	if err := w.Run(drainCtx, killCtx); err != nil {
		log.Error("worker failed", "err", err)
		return 1
	}
	log.Info("worker stopped")
	return 0
}
