package repro

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cliutil"
	"repro/internal/fleet"
	"repro/internal/server"
)

// drillSweep is a four-child sweep, two children in flight at a time.
// A child runs for about 0.4 s on a 2-vCPU Xeon, twenty times the
// drill's polling interval, so each kill lands while a child runs.
const drillSweep = `{"base":{"config":{"llc_sets":256,"scale":0.15,"l2_size_kb":64,"epoch_cycles":200000},
  "warmup_cycles":100000,"measure_cycles":4000000},
  "axes":[{"field":"cpth","values":[20,30,40,50]}],"concurrency":2}`

// leasesLost matches the fleet's expired and requeued lease counters in
// a Prometheus exposition once each is at least 1.
var leasesLost = regexp.MustCompile(`(?m)^simd_fleet_leases_(expired|requeued) [1-9]`)

// TestKillDrill runs simd as real processes: a remote-only coordinator
// with a durable data directory and two fleet workers. It SIGKILLs the
// worker holding a lease and waits for the coordinator to expire and
// requeue that lease. It then SIGKILLs the coordinator mid-sweep and
// restarts it on the same address over the same directory. The sweep
// must still complete all four children, with the ones finished before
// the kill served from their artifacts.
func TestKillDrill(t *testing.T) {
	simd := cmdPath(t, "simd")
	ln, err := net.Listen("tcp", "127.0.0.1:0") // a free port for the coordinator
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr
	coordArgs := []string{"-addr", addr, "-remote-only", "-data", t.TempDir(), "-lease-ttl", "1s", "-log-format", "json"}

	coord := startProc(t, "coordinator", simd, coordArgs...)
	waitFor(t, "coordinator health", func() bool { return httpGet(base+"/healthz") != nil })
	w1 := startProc(t, "w1", simd, "-worker", "-join", base, "-worker-id", "drill-w1")
	startProc(t, "w2", simd, "-worker", "-join", base, "-worker-id", "drill-w2")

	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(drillSweep))
	if err != nil {
		t.Fatal(err)
	}
	var sw server.SweepStatus
	json.NewDecoder(resp.Body).Decode(&sw)
	resp.Body.Close()
	if sw.ID == "" {
		t.Fatalf("sweep submission answered %d", resp.StatusCode)
	}
	sweep := func() server.SweepStatus {
		var st server.SweepStatus
		if body := httpGet(base + "/v1/sweeps/" + sw.ID); body != nil {
			json.Unmarshal(body, &st)
		}
		return st
	}

	waitFor(t, "a lease held by drill-w1", func() bool {
		var leases []fleet.LeaseInfo
		json.Unmarshal(httpGet(base+"/v1/leases"), &leases)
		return slices.ContainsFunc(leases, func(l fleet.LeaseInfo) bool { return l.Worker == "drill-w1" })
	})
	kill(w1)
	waitFor(t, "the killed worker's lease to expire and requeue", func() bool {
		return len(leasesLost.FindAll(httpGet(base+"/metrics?format=prometheus"), -1)) == 2
	})

	waitFor(t, "a completed child", func() bool { return sweep().Completed >= 1 })
	if st := sweep(); st.Completed == st.TotalChildren {
		t.Fatalf("the sweep finished before the coordinator kill: %+v", st)
	}
	kill(coord)
	startProc(t, "restarted coordinator", simd, coordArgs...)
	waitFor(t, "the sweep to complete after the restart", func() bool {
		return sweep().State == server.SweepCompleted
	})
	if st := sweep(); st.Completed != 4 || st.CacheHits < 1 {
		t.Fatalf("resumed sweep completed %d/4 children with %d served from artifacts", st.Completed, st.CacheHits)
	}
}

// TestCellFailureExitStatus runs a multi-cell command with one cell made
// to panic: the command must still write its whole report — the failure
// table and every other policy's row — and then exit 1, so a partial
// figure cannot pass for a whole one.
func TestCellFailureExitStatus(t *testing.T) {
	cmd := exec.Command(cmdPath(t, "energy"), "-mixes", "1", "-warmup", "50000", "-measure", "200000", "-scale", "0.1")
	cmd.Env = append(os.Environ(), cliutil.PanicTaskEnv+"=LHybrid/mix=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("energy ended with %v, want exit status 1\nstdout:\n%s\nstderr:\n%s", err, &stdout, &stderr)
	}
	out := stdout.String()
	if !regexp.MustCompile(`(?m)^task_failures$`).MatchString(out) ||
		!regexp.MustCompile(`(?m)^LHybrid/mix=1 +panic `).MatchString(out) {
		t.Errorf("no failure table naming the panicked cell:\n%s", out)
	}
	for _, pol := range []string{"BH", "BH_CP", "TAP", "CA_RWR", "CP_SD", "CP_SD_Th"} {
		if !regexp.MustCompile(`(?m)^` + pol + ` +\d`).MatchString(out) {
			t.Errorf("row %s missing:\n%s", pol, out)
		}
	}
	if regexp.MustCompile(`(?m)^LHybrid +\d`).MatchString(out) {
		t.Errorf("the failed policy kept its row:\n%s", out)
	}
}

// TestEnergyWithoutBH runs energy with the BH cell made to panic: with
// no baseline, every remaining row prints "-" in the vs_bh column
// instead of a ratio.
func TestEnergyWithoutBH(t *testing.T) {
	cmd := exec.Command(cmdPath(t, "energy"), "-mixes", "1", "-warmup", "50000", "-measure", "200000", "-scale", "0.1")
	cmd.Env = append(os.Environ(), cliutil.PanicTaskEnv+"=BH/mix=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("energy succeeded with a panicked cell\nstderr:\n%s", &stderr)
	}
	out := stdout.String()
	rows := 0
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 10 || !slices.Contains([]string{"BH_CP", "LHybrid", "TAP", "CA_RWR", "CP_SD", "CP_SD_Th"}, f[0]) {
			continue
		}
		rows++
		if f[7] != "-" {
			t.Errorf("row %s has vs_bh %s without a BH baseline", f[0], f[7])
		}
	}
	if rows != 6 {
		t.Fatalf("found %d policy rows, want 6:\n%s", rows, out)
	}
}

// TestCmdRejectsMeaninglessWindows runs the commands with a capacity
// step, phase, pre-age capacity or config value that has no meaning:
// each must exit 1 naming the flag or value before it simulates or
// writes anything, instead of printing an infinite lifetime, a NaN or a
// fresh array's figures.
func TestCmdRejectsMeaninglessWindows(t *testing.T) {
	forecastArgs := []string{"-mixes", "1", "-policies", "CP_SD", "-warmup", "100000",
		"-sets", "256", "-scale", "0.15", "-l2kb", "64"}
	hybridsimArgs := []string{"-warmup", "50000", "-measure", "100000", "-sets", "256", "-scale", "0.15"}
	cases := []struct {
		cmd  string
		args []string
		flag string // what the error must name
	}{
		{"forecast", append(forecastArgs, "-phase", "300000", "-step", "0"), "-step"},
		{"forecast", append(forecastArgs, "-phase", "300000", "-step", "-0.1"), "-step"},
		{"forecast", append(forecastArgs, "-phase", "300000", "-step", "NaN"), "-step"},
		{"forecast", append(forecastArgs, "-phase", "300000", "-step", "1"), "-step"},
		{"forecast", append(forecastArgs, "-phase", "0"), "-phase"},
		{"hybridsim", append(hybridsimArgs, "-capacity", "0"), "-capacity"},
		{"hybridsim", append(hybridsimArgs, "-capacity", "-0.5"), "-capacity"},
		{"hybridsim", append(hybridsimArgs, "-capacity", "NaN"), "-capacity"},
		{"hybridsim", append(hybridsimArgs, "-capacity", "1.5"), "-capacity"},
		// Config.Validate refuses a NaN in any float field.
		{"hybridsim", append(hybridsimArgs, "-scale", "NaN"), "scale NaN"},
		{"forecast", append(forecastArgs, "-phase", "300000", "-cv", "NaN"), "endurance CV NaN"},
		// thsweep's -tw and tracegen's -scale go through Config.Validate.
		{"thsweep", []string{"-tw", "-5", "-mixes", "1", "-warmup", "1000", "-measure", "1000", "-scale", "0.05"}, "Tw=-5"},
		{"tracegen", []string{"-mix", "1", "-scale", "0", "-n", "1000", "-o", filepath.Join(t.TempDir(), "mix1")}, "scale 0"},
	}
	for _, c := range cases {
		cmd := exec.Command(cmdPath(t, c.cmd), c.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		if exit := (*exec.ExitError)(nil); !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s %v ended with %v, want exit status 1\nstdout:\n%s", c.cmd, c.args, err, &stdout)
			continue
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), c.flag) {
			t.Errorf("%s %v: want no report and an error naming %s\nstdout:\n%s\nstderr:\n%s",
				c.cmd, c.args, c.flag, &stdout, &stderr)
		}
	}
}

// startProc starts bin with args. The test's cleanup kills it if it
// still runs, and logs its output when the test failed.
func startProc(t *testing.T, name, bin string, args ...string) *exec.Cmd {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		kill(cmd)
		if t.Failed() {
			t.Logf("--- %s output ---\n%s", name, &out)
		}
	})
	return cmd
}

// kill SIGKILLs a started command and reaps it.
func kill(cmd *exec.Cmd) {
	cmd.Process.Kill()
	cmd.Wait()
}

// httpGet returns the body of a 200 answer to GET url, or nil.
func httpGet(url string) []byte {
	resp, err := http.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if body, err := io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
		return body
	}
	return nil
}

// waitFor polls cond every 20 ms and fails the test if it is not true
// within 30 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
