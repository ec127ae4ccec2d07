package cliutil

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/report"
)

// This file is the hardened fan-out runner shared by the long-running
// experiment drivers: the experiments package's cell grid behind
// cpthsweep, thsweep, energy and forecast, and the per-application
// study behind appstudy. Every task runs behind a recover() barrier;
// failures become structured records instead of aborting the whole
// sweep, so an hours-long run always produces a report — with the
// casualties listed in it — and then exits 1 (ExitIfFailed).

// PanicTaskEnv names the environment variable that makes the pool panic
// inside the task whose Name matches its value. It exists to prove the
// crash-isolation path end to end: run any sweep with the variable set
// and the remaining tasks must complete, with the panic recorded in the
// report's failure table.
const PanicTaskEnv = "REPRO_FAULT_PANIC_TASK"

// Task is one unit of sweep work: a stable name (used in failure
// records) and the function to run.
type Task struct {
	Name string
	Run  func() error
}

// TaskResult records how one task ended. The zero Err means success.
type TaskResult struct {
	Name     string
	Err      error
	Panicked bool   // Err came from a recovered panic
	Stack    string // goroutine stack for panics (not rendered in tables)
}

// Failed reports whether the task ended in any failure.
func (r TaskResult) Failed() bool { return r.Err != nil }

// Kind names the failure class for reporting.
func (r TaskResult) Kind() string {
	switch {
	case r.Err == nil:
		return "ok"
	case r.Panicked:
		return "panic"
	default:
		return "error"
	}
}

// PoolConfig tunes RunTasks. The zero value is the hardened default:
// GOMAXPROCS workers, every task runs whatever the others do.
type PoolConfig struct {
	// Workers caps concurrent tasks; <= 0 uses GOMAXPROCS.
	Workers int
}

// RunTasks executes the tasks on a worker pool and returns one result
// per task, index-aligned with the input — the order is deterministic
// even though execution is concurrent.
func RunTasks(tasks []Task, cfg PoolConfig) []TaskResult {
	results := make([]TaskResult, len(tasks))
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				results[i] = RunTask(tasks[i])
			}
		}()
	}
	wg.Wait()
	return results
}

// RunTask executes one task inline behind the pool's recover barrier,
// outside any pool. The simd job manager runs every queued job through
// it, so a panicking simulation becomes a failed job record instead of
// a dead daemon.
func RunTask(t Task) (res TaskResult) {
	res.Name = t.Name
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Errorf("panic: %v", r)
			res.Panicked = true
			res.Stack = string(debug.Stack())
		}
	}()
	if want := os.Getenv(PanicTaskEnv); want != "" && want == t.Name {
		panic(fmt.Sprintf("deliberate fault injection (%s=%s)", PanicTaskEnv, want))
	}
	res.Err = t.Run()
	return res
}

// Failures filters the failed results, preserving order.
func Failures(results []TaskResult) []TaskResult {
	var out []TaskResult
	for _, r := range results {
		if r.Failed() {
			out = append(out, r)
		}
	}
	return out
}

// ErrOf joins the failures into one error (nil when every task
// succeeded), each wrapped with its task name so errors.Is still reaches
// the underlying cause.
func ErrOf(results []TaskResult) error {
	var errs []error
	for _, r := range results {
		if r.Failed() {
			errs = append(errs, fmt.Errorf("%s: %w", r.Name, r.Err))
		}
	}
	return errors.Join(errs...)
}

// FailureTable renders the failed tasks as a report table, or nil when
// the run was clean.
func FailureTable(results []TaskResult) *report.Table {
	fails := Failures(results)
	if len(fails) == 0 {
		return nil
	}
	t := report.New("task_failures", "task", "kind", "error")
	for _, r := range fails {
		t.AddRow(r.Name, r.Kind(), r.Err.Error())
	}
	return t
}

// AddRunSummary records the sweep outcome in a report: task counts as
// fields plus, when tasks failed, the failure table.
func AddRunSummary(rep *report.Report, results []TaskResult) {
	fails := Failures(results)
	rep.AddField("tasks_total", len(results))
	rep.AddField("tasks_failed", len(fails))
	if t := FailureTable(results); t != nil {
		rep.AddTable(t)
	}
}

// ExitIfFailed is how every multi-cell command ends once its report is
// written: when any task failed it names each failure on stderr and
// exits 1, so a partial figure never passes for a whole one.
func ExitIfFailed(cmd string, results []TaskResult) {
	fails := Failures(results)
	if len(fails) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "%s: %d of %d tasks failed:\n", cmd, len(fails), len(results))
	for _, f := range fails {
		fmt.Fprintf(os.Stderr, "  %s [%s]: %v\n", f.Name, f.Kind(), f.Err)
	}
	os.Exit(1)
}
