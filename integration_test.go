// Integration tests: cross-module, end-to-end invariants of the full
// reproduction — every policy run against real workloads on the real
// hierarchy, aged and unaged, checked for structural consistency,
// determinism and the orderings the paper's conclusions rest on.
package repro

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/forecast"
)

func TestEveryPolicyEndToEndInvariants(t *testing.T) {
	// Classic sequential engine: every policy.
	for _, name := range core.Policies() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := core.QuickConfig()
			cfg.PolicyName = name
			cfg.Th = 4
			sys, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			sys.Run(3_000_000)
			if err := sys.LLC().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			st := sys.LLC().Stats
			if st.GetS == 0 || st.Inserts == 0 {
				t.Fatalf("no traffic: %+v", st)
			}
			// Fresh inserts plus migrations cover all partition inserts.
			if st.SRAMInserts+st.NVMInserts < st.Inserts {
				t.Fatalf("insert accounting: %d+%d < %d", st.SRAMInserts, st.NVMInserts, st.Inserts)
			}
		})
	}
	// The retired shard knob: shards=1 names the sequential engine and
	// must run exactly like the default, while a parallel shard count
	// (here a non-power-of-two on 256 sets) is refused with a pointer at
	// sweeps, the job-level parallel path.
	for _, name := range []string{"CP_SD", "LHybrid", "TAP"} {
		for _, shards := range []int{1, 3} {
			name, shards := name, shards
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				t.Parallel()
				cfg := core.QuickConfig()
				cfg.PolicyName = name
				cfg.Th = 4
				cfg.Shards = shards
				sys, err := cfg.Build()
				if shards > 1 {
					if err == nil || !strings.Contains(err.Error(), "/v1/sweeps") {
						t.Fatalf("Build: %v, want a rejection naming /v1/sweeps", err)
					}
					if _, err := cfg.NewRunHandle(); err == nil || !strings.Contains(err.Error(), "/v1/sweeps") {
						t.Fatalf("NewRunHandle: %v, want a rejection naming /v1/sweeps", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				sys.Run(3_000_000)
				if err := sys.LLC().CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				cfg.Shards = 0
				ref, err := cfg.Build()
				if err != nil {
					t.Fatal(err)
				}
				ref.Run(3_000_000)
				if st, want := sys.LLC().Stats, ref.LLC().Stats; !reflect.DeepEqual(st, want) {
					t.Fatalf("shards=1 stats differ from shards=0:\n got %+v\nwant %+v", st, want)
				}
			})
		}
	}
}

func TestAgedSystemInvariants(t *testing.T) {
	for _, name := range []string{"BH", "BH_CP", "LHybrid", "CP_SD"} {
		cfg := core.QuickConfig()
		cfg.PolicyName = name
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		sys.Run(1_000_000)
		core.PreAge(sys, 0.7)
		if err := sys.LLC().CheckInvariants(); err != nil {
			t.Fatalf("%s after aging: %v", name, err)
		}
		sys.Run(2_000_000)
		if err := sys.LLC().CheckInvariants(); err != nil {
			t.Fatalf("%s after aged run: %v", name, err)
		}
		got := sys.LLC().EffectiveCapacityFraction()
		if math.Abs(got-0.7) > 0.05 {
			t.Errorf("%s: capacity drifted to %v during run", name, got)
		}
	}
}

func TestEndToEndDeterminism(t *testing.T) {
	run := func() core.Summary {
		cfg := core.QuickConfig()
		cfg.PolicyName = "CP_SD_Th"
		cfg.Th = 4
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		return core.Measure(sys, 500_000, 2_000_000)
	}
	a, b := run(), run()
	// DeepEqual also compares the full registry deltas, so every metric —
	// not just the summary scalars — must reproduce bit-for-bit.
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("non-deterministic end-to-end run:\n%+v\n%+v", a, b)
	}
}

// TestPaperOrderingBounds is the headline integration check: the paper's
// Fig 10a orderings on a real (quick) run.
func TestPaperOrderingBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-policy measurement")
	}
	type res struct {
		ipc   float64
		bytes uint64
	}
	measure := func(name string) res {
		var sum res
		for _, m := range []int{0, 3} {
			cfg := core.QuickConfig()
			cfg.MixID = m
			cfg.PolicyName = name
			sys, err := cfg.Build()
			if err != nil {
				t.Fatal(err)
			}
			s := core.Measure(sys, 1_000_000, 4_000_000)
			sum.ipc += s.MeanIPC / 2
			sum.bytes += s.NVMBytesWritten
		}
		return sum
	}
	up := measure("SRAM16")
	low := measure("SRAM4")
	bh := measure("BH")
	lh := measure("LHybrid")
	tap := measure("TAP")
	cp := measure("CP_SD")

	// Performance ordering: SRAM16 >= BH > LHybrid; CP_SD close to BH and
	// above LHybrid (the paper's +9%); everything above the 4w bound.
	if !(up.ipc >= bh.ipc && bh.ipc > low.ipc) {
		t.Errorf("bound ordering broken: up=%.4f bh=%.4f low=%.4f", up.ipc, bh.ipc, low.ipc)
	}
	if !(cp.ipc > lh.ipc) {
		t.Errorf("CP_SD IPC (%.4f) should exceed LHybrid (%.4f)", cp.ipc, lh.ipc)
	}
	if !(lh.ipc > low.ipc) {
		t.Errorf("LHybrid (%.4f) below the 4w SRAM bound (%.4f)", lh.ipc, low.ipc)
	}
	// Write-traffic ordering: TAP <= LHybrid < BH; CP_SD < BH.
	if !(tap.bytes <= lh.bytes && lh.bytes < bh.bytes) {
		t.Errorf("write ordering broken: tap=%d lh=%d bh=%d", tap.bytes, lh.bytes, bh.bytes)
	}
	if !(cp.bytes < bh.bytes/2) {
		t.Errorf("CP_SD bytes (%d) not well below BH (%d)", cp.bytes, bh.bytes)
	}
}

// TestForecastOrderings: lifetimes must order BH < BH_CP and BH < CP_SD on
// an accelerated-endurance run; capacities are monotonically non-increasing.
func TestForecastOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("forecast comparison")
	}
	fc := forecast.DefaultConfig()
	fc.WarmupCycles = 250_000
	fc.PhaseCycles = 1_500_000
	fc.CapacityStep = 0.125
	fc.MaxPhases = 10
	life := func(name string) float64 {
		cfg := core.QuickConfig()
		cfg.PolicyName = name
		cfg.EnduranceMean = 3e4
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		res := forecast.Run(sys, fc)
		for i := 1; i < len(res.Points); i++ {
			if res.Points[i].Capacity > res.Points[i-1].Capacity+1e-9 {
				t.Fatalf("%s: capacity increased", name)
			}
		}
		return res.LifetimeSeconds
	}
	bh := life("BH")
	bhcp := life("BH_CP")
	cp := life("CP_SD")
	if math.IsInf(bh, 1) {
		t.Fatal("BH should reach 50% capacity at 3e4 endurance")
	}
	if !(bhcp > bh) {
		t.Errorf("BH_CP lifetime (%.0f) !> BH (%.0f): compression+byte-disabling must help", bhcp, bh)
	}
	if !math.IsInf(cp, 1) && !(cp > bh) {
		t.Errorf("CP_SD lifetime (%.0f) !> BH (%.0f)", cp, bh)
	}
}

// TestThKnobMonotonicity: raising Th must not increase NVM write traffic.
func TestThKnobMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("rule sweep")
	}
	bytesAt := func(th float64) uint64 {
		cfg := core.QuickConfig()
		cfg.EpochCycles = 250_000
		if th == 0 {
			cfg.PolicyName = "CP_SD"
		} else {
			cfg.PolicyName = "CP_SD_Th"
			cfg.Th = th
		}
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		return core.Measure(sys, 1_000_000, 4_000_000).NVMBytesWritten
	}
	b0 := bytesAt(0)
	b8 := bytesAt(8)
	if b8 > b0+b0/20 {
		t.Errorf("Th=8 writes %d NVM bytes, more than CP_SD's %d", b8, b0)
	}
}

// TestDuelingConvergesOnExtremeWorkloads: on an all-incompressible mix
// (xz17/milc-heavy mix 9) the dueling winner should not be a tiny CPth —
// with nothing compressible, bigger thresholds cost nothing and the hit
// counters dominate.
func TestDuelingAdaptsToWorkload(t *testing.T) {
	cfg := core.QuickConfig()
	cfg.MixID = 8 // xz17 astar06 bwaves17 soplex06
	cfg.EpochCycles = 250_000
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(4_000_000)
	d, ok := core.Dueling(sys)
	if !ok {
		t.Fatal("no dueling controller")
	}
	if len(d.History) < 8 {
		t.Fatalf("only %d epochs recorded", len(d.History))
	}
}

// TestMaterializedEndToEnd drives the full system with the bit-exact NVM
// data path enabled: thousands of real blocks compressed, SECDED-encoded,
// scattered over (aging) frames, and verified on every LLC hit. Zero
// verification errors proves the performance simulator's accounting
// corresponds to a working hardware pipeline.
func TestMaterializedEndToEnd(t *testing.T) {
	cfg := core.QuickConfig()
	cfg.PolicyName = "CP_SD"
	cfg.MaterializeData = true
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	sys.Run(2_000_000)
	st := sys.LLC().Stats
	if st.NVMHits == 0 {
		t.Fatal("no NVM hits; verification never exercised")
	}
	if st.DataPathErrors != 0 {
		t.Fatalf("%d data-path verification errors", st.DataPathErrors)
	}
	if err := sys.LLC().VerifyAllResident(); err != nil {
		t.Fatal(err)
	}
	// Age the array mid-run, rotate the wear-leveling counter, continue:
	// still bit-exact.
	core.PreAge(sys, 0.85)
	sys.LLC().Array().Counter().Advance(13)
	sys.Run(2_000_000)
	st = sys.LLC().Stats
	if st.DataPathErrors != 0 {
		t.Fatalf("%d data-path errors after aging", st.DataPathErrors)
	}
	if err := sys.LLC().VerifyAllResident(); err != nil {
		t.Fatal(err)
	}
}
