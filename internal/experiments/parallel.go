package experiments

import "repro/internal/cliutil"

// runTasks fans sweep work out on the shared hardened pool (package
// cliutil): default worker count, no per-task deadline, continue on
// error. Every experiment configuration is an independent, deterministic
// simulation, so results are identical to the serial order as long as
// each task writes only to its own index — which is how all callers use
// it. Failures (including recovered panics) come back as structured
// records instead of aborting the sweep.
func runTasks(tasks []cliutil.Task) []cliutil.TaskResult {
	return cliutil.RunTasks(tasks, cliutil.PoolConfig{})
}
