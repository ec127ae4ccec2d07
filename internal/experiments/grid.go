package experiments

import (
	"errors"
	"fmt"

	"repro/internal/cliutil"
	"repro/internal/core"
)

// Variant names one row of an experiment grid — a forecast curve, a
// policy, a parameter point — and how to derive its configuration from
// the base.
type Variant struct {
	Label  string
	Mutate func(*core.Config)
}

// policyVariant is the variant that only selects a policy.
func policyVariant(name string) Variant {
	return Variant{name, func(c *core.Config) { c.PolicyName = name }}
}

// cellGrid is what runGrid leaves behind: each variant's cell values in
// mix order, and every cell's task record, variant-major.
type cellGrid[T any] struct {
	rows    [][]T
	results []cliutil.TaskResult
}

// runGrid is the one runner of every experiment grid: it crosses the
// variants with the mixes and runs each cell on the cliutil pool, as a
// task named "<label>/mix=<n>" (n 1-based). A cell gets the variant's
// index and the base config with the mix set and the variant applied.
// Each task writes only its own slot, so the grid equals a serial run
// at any pool width.
func runGrid[T any](base core.Config, variants []Variant, mixes []int, cell func(v int, cfg core.Config) (T, error)) cellGrid[T] {
	g := cellGrid[T]{rows: make([][]T, len(variants))}
	tasks := make([]cliutil.Task, 0, len(variants)*len(mixes))
	for v, variant := range variants {
		g.rows[v] = make([]T, len(mixes))
		for m, mix := range mixes {
			tasks = append(tasks, cliutil.Task{Name: fmt.Sprintf("%s/mix=%d", variant.Label, mix+1), Run: func() error {
				cfg := base
				cfg.MixID = mix
				variant.Mutate(&cfg)
				val, err := cell(v, cfg)
				g.rows[v][m] = val
				return err
			}})
		}
	}
	g.results = cliutil.RunTasks(tasks, cliutil.PoolConfig{})
	return g
}

// failed reports whether cell (v, m) failed.
func (g cellGrid[T]) failed(v, m int) bool {
	return g.results[v*len(g.rows[v])+m].Failed()
}

// row returns variant v's values, or false when any of its cells failed:
// a row is dropped exactly when one of its cells failed.
func (g cellGrid[T]) row(v int) ([]T, bool) {
	for m := range g.rows[v] {
		if g.failed(v, m) {
			return nil, false
		}
	}
	return g.rows[v], true
}

// err joins the failures of the given variants' cells — of every cell
// when none are given — for the rows a result cannot do without. A grid
// without mixes fails too: it has no values to average.
func (g cellGrid[T]) err(variants ...int) error {
	if len(g.rows) > 0 && len(g.rows[0]) == 0 {
		return errors.New("experiments: no mixes")
	}
	if len(variants) == 0 {
		return cliutil.ErrOf(g.results)
	}
	var errs []error
	for _, v := range variants {
		n := len(g.rows[v])
		errs = append(errs, cliutil.ErrOf(g.results[v*n:(v+1)*n]))
	}
	return errors.Join(errs...)
}
