package core

import (
	"testing"

	"repro/internal/check"
)

// TestNonPowerOfTwoGeometryUnderChecker runs the full system on set
// counts that are not powers of two — a 96 KB L2 (96 sets), and with it
// a 384-set LLC behind a rotating coloring mapper — with the invariant
// checker attached, so every set-index path falls back to the modulo
// while the checker verifies the directory mirrors and capacity rows.
func TestNonPowerOfTwoGeometryUnderChecker(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"l2-96KB", func(c *Config) {}},
		{"l2-96KB-llc-384-rotate", func(c *Config) {
			c.LLCSets = 384
			c.Coloring = &ColoringConfig{Scheme: "rotate", IntervalEpochs: 1, Step: 7}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := QuickConfig()
			cfg.L2SizeKB = 96
			cfg.CheckEvery = 2000
			tc.tweak(&cfg)
			sys, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			if got := sys.Cores()[0].L2().Sets(); got != 96 {
				t.Fatalf("L2 has %d sets, want 96", got)
			}
			sys.Run(1_200_000)
			chk := sys.AccessProbe().(*check.Checker)
			if chk.Runs() == 0 {
				t.Fatal("checker never ran")
			}
			if err := chk.Err(); err != nil {
				t.Fatal(err)
			}
			if sys.Epochs == 0 {
				t.Fatal("run closed no epoch, so no remap was exercised")
			}
		})
	}
}

// TestStepAccessesZeroAllocs pins the whole front end — private caches,
// LLC lookup/insert/victim choice, BDI sizing, set dueling and epoch
// sampling — at zero allocations per access in steady state, on the
// default configuration under BH and CP_SD.
func TestStepAccessesZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two default-size systems")
	}
	for _, pol := range []string{"BH", "CP_SD"} {
		t.Run(pol, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PolicyName = pol
			sys, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			sys.Run(cfg.EpochCycles + 500_000) // warm, past the first epoch
			// One measured call after one warm-up call: the count is exact,
			// not an average rounded down. closed is the measured call's.
			var closed int
			allocs := testing.AllocsPerRun(1, func() {
				e := sys.Epochs
				sys.StepAccesses(400_000)
				closed = sys.Epochs - e
			})
			if allocs != 0 {
				t.Errorf("StepAccesses(400000) allocates %.0f times, want 0", allocs)
			}
			if closed == 0 {
				t.Error("the measured steps closed no epoch; the epoch path went unmeasured")
			}
		})
	}
}
