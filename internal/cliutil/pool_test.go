package cliutil

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/report"
)

func namedTasks(n int, fn func(i int) error) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		i := i
		tasks[i] = Task{Name: fmt.Sprintf("task-%d", i), Run: func() error { return fn(i) }}
	}
	return tasks
}

func TestRunTasksAllSucceed(t *testing.T) {
	var ran int64
	results := RunTasks(namedTasks(50, func(int) error {
		atomic.AddInt64(&ran, 1)
		return nil
	}), PoolConfig{})
	if ran != 50 || len(results) != 50 {
		t.Fatalf("ran %d, %d results", ran, len(results))
	}
	for i, r := range results {
		if r.Failed() || r.Name != fmt.Sprintf("task-%d", i) {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	if err := ErrOf(results); err != nil {
		t.Fatal(err)
	}
}

func TestRunTasksContinuesPastFailures(t *testing.T) {
	sentinel := errors.New("boom")
	var ran int64
	results := RunTasks(namedTasks(40, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 3 {
			return sentinel
		}
		return nil
	}), PoolConfig{})
	if ran != 40 {
		t.Fatalf("only %d tasks ran; pool stopped on error", ran)
	}
	fails := Failures(results)
	if len(fails) != 1 || fails[0].Name != "task-3" || fails[0].Kind() != "error" {
		t.Fatalf("failures: %+v", fails)
	}
	if err := ErrOf(results); !errors.Is(err, sentinel) {
		t.Fatalf("ErrOf = %v", err)
	}
}

func TestRunTasksRecoversPanics(t *testing.T) {
	var ran int64
	results := RunTasks(namedTasks(20, func(i int) error {
		atomic.AddInt64(&ran, 1)
		if i == 7 {
			panic("exploded")
		}
		return nil
	}), PoolConfig{})
	if ran != 20 {
		t.Fatalf("only %d tasks ran after a panic", ran)
	}
	fails := Failures(results)
	if len(fails) != 1 || !fails[0].Panicked || fails[0].Kind() != "panic" {
		t.Fatalf("failures: %+v", fails)
	}
	if !strings.Contains(fails[0].Err.Error(), "exploded") {
		t.Fatalf("panic value lost: %v", fails[0].Err)
	}
	if fails[0].Stack == "" {
		t.Fatal("no stack captured")
	}
}

func TestPanicTaskEnvHook(t *testing.T) {
	t.Setenv(PanicTaskEnv, "task-2")
	results := RunTasks(namedTasks(5, func(int) error { return nil }), PoolConfig{})
	fails := Failures(results)
	if len(fails) != 1 || fails[0].Name != "task-2" || !fails[0].Panicked {
		t.Fatalf("failures: %+v", fails)
	}
	if !strings.Contains(fails[0].Err.Error(), PanicTaskEnv) {
		t.Fatalf("injected panic unlabelled: %v", fails[0].Err)
	}
}

func TestFailureReporting(t *testing.T) {
	results := RunTasks(namedTasks(4, func(i int) error {
		if i%2 == 1 {
			return fmt.Errorf("odd %d", i)
		}
		return nil
	}), PoolConfig{})
	rep := report.NewReport("sweep")
	AddRunSummary(rep, results)
	fields := rep.Fields()
	if len(fields) != 2 || fields[0].Key != "tasks_total" || fields[1].Key != "tasks_failed" {
		t.Fatalf("fields: %+v", fields)
	}
	if fields[1].Value.(int) != 2 {
		t.Fatalf("tasks_failed = %v", fields[1].Value)
	}
	tables := rep.Tables()
	if len(tables) != 1 || tables[0].Rows() != 2 {
		t.Fatalf("failure table wrong: %+v", tables)
	}
	// A clean run adds no table.
	rep2 := report.NewReport("sweep")
	AddRunSummary(rep2, RunTasks(namedTasks(3, func(int) error { return nil }), PoolConfig{}))
	if len(rep2.Tables()) != 0 {
		t.Fatal("clean run produced a failure table")
	}
	if FailureTable(nil) != nil {
		t.Fatal("nil results produced a table")
	}
}

func TestRunTasksEmpty(t *testing.T) {
	if rs := RunTasks(nil, PoolConfig{}); len(rs) != 0 {
		t.Fatalf("%d results for no tasks", len(rs))
	}
}
