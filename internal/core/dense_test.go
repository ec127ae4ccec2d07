package core

import (
	"testing"

	"repro/internal/check"
)

// TestNonPowerOfTwoGeometryUnderChecker runs the full system on set
// counts that are not powers of two — a 96 KB L2 (96 sets), and with it
// a 384-set LLC behind the wear coloring mapper — with the invariant
// checker attached, so every set-index path falls back to the modulo
// while the checker verifies the directory mirrors and capacity rows.
// In the coloring case the mapping must have moved by the end; the
// checker fails any block left in a row it no longer maps to, so a
// green checker after a remap shows the remapped rows were flushed.
func TestNonPowerOfTwoGeometryUnderChecker(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"l2-96KB", func(c *Config) {}},
		{"l2-96KB-llc-384-wear", func(c *Config) {
			c.LLCSets = 384
			c.Coloring = &ColoringConfig{Scheme: ColoringWear, IntervalEpochs: 1, Pairs: 16}
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
			if cfg.Coloring != nil {
				llc, moved := sys.LLC(), false
				for set := 0; set < cfg.LLCSets; set++ {
					moved = moved || llc.SetOf(uint64(set)) != set
				}
				if !moved {
					t.Fatal("the wear coloring never remapped a set")
				}
			}
		})
	}
}

// TestStepAccessesZeroAllocs pins the whole front end — private caches,
// LLC lookup/insert/victim choice, BDI sizing, set dueling and epoch
// sampling — at zero allocations per access in steady state, on the
// default configuration under BH and CP_SD, and under CP_SD with the
// wear coloring remapping and flushing rows at every epoch boundary. The
// aging inputs add the NVM frames' byte deaths: at an accelerated
// endurance of 3e4 writes (CV 0.02), every frame is pre-worn to three
// standard deviations below the mean, so during the measured call bytes
// die and frames draw their next endurance limits; the test asserts
// that bytes do die there.
//
// testing.AllocsPerRun counts every allocation in the process, so one
// stray allocation outside the simulator can land in the measured call.
// A nonzero count is therefore measured once more on a rebuilt system
// after the same warm-up: the simulator is deterministic, so an
// allocation on its hot path recurs in the replay and still fails.
func TestStepAccessesZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two default-size systems")
	}
	for _, tc := range []struct {
		name, pol string
		aging     bool
		coloring  *ColoringConfig
	}{
		{"BH", "BH", false, nil},
		{"CP_SD", "CP_SD", false, nil},
		{"BH-aging", "BH", true, nil},
		{"CP_SD-aging", "CP_SD", true, nil},
		{"CP_SD-wear", "CP_SD", false, &ColoringConfig{Scheme: ColoringWear, IntervalEpochs: 1, Pairs: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.PolicyName = tc.pol
			cfg.Coloring = tc.coloring
			if tc.aging {
				cfg.EnduranceMean, cfg.EnduranceCV = 3e4, 0.02
			}
			measure := func() (allocs float64, closed, died, remapped int) {
				sys, err := cfg.Build()
				if err != nil {
					t.Fatal(err)
				}
				frames := sys.LLC().Array().Frames()
				if tc.aging {
					for _, f := range frames {
						f.AddWear(cfg.EnduranceMean * (1 - 3*cfg.EnduranceCV))
					}
				}
				faulty := func() (n int) {
					for _, f := range frames {
						n += f.FaultyBytes()
					}
					return n
				}
				rows := make([]int, cfg.LLCSets)
				moves := func() (n int) { // sets whose row changed since the last call
					for set := range rows {
						if r := sys.LLC().SetOf(uint64(set)); r != rows[set] {
							rows[set] = r
							n++
						}
					}
					return n
				}
				sys.Run(cfg.EpochCycles + 500_000) // warm, past the first epoch
				// One measured call after one warm-up call: the count is
				// exact, not an average rounded down. closed, died and
				// remapped are the measured call's.
				allocs = testing.AllocsPerRun(1, func() {
					e, d := sys.Epochs, faulty()
					moves()
					sys.StepAccesses(400_000)
					closed, died, remapped = sys.Epochs-e, faulty()-d, moves()
				})
				return allocs, closed, died, remapped
			}
			allocs, closed, died, remapped := measure()
			if allocs != 0 {
				t.Logf("StepAccesses(400000) allocated %.0f times; replaying on a rebuilt system", allocs)
				allocs, closed, died, remapped = measure()
			}
			if allocs != 0 {
				t.Errorf("StepAccesses(400000) allocates %.0f times, want 0", allocs)
			}
			if closed == 0 {
				t.Error("the measured steps closed no epoch; the epoch path went unmeasured")
			}
			if tc.aging && died == 0 {
				t.Error("no byte died in the measured steps; the aging path went unmeasured")
			}
			if tc.coloring != nil && remapped == 0 {
				t.Error("the coloring remapped no set in the measured steps; the remap path went unmeasured")
			}
		})
	}
}
