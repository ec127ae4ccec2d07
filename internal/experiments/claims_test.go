package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/forecast"
)

// TestFig10aClaims asserts the paper's Fig. 10a claims on DefaultConfig,
// through the reduced Fig 10a command:
//
//	forecast -mixes 1,4 -policies standard -phase 4000000 -warmup 2000000 -step 0.05
//
// It checks orderings and ratios only, never month counts, so a change
// that moves every lifetime a little still passes while one that breaks
// a shape fails:
//   - young IPC: TAP < LHybrid < CP_SD < BH_CP < BH <= SRAM16;
//   - lifetime: BH < BH_CP < {LHybrid, CP_SD} < TAP;
//   - CP_SD_Th4 and CP_SD_Th8 each cost less than 2.5% of CP_SD's young
//     IPC and buy at least 10% lifetime over it.
func TestFig10aClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the reduced Fig 10a forecast on DefaultConfig")
	}
	fcfg := forecast.DefaultConfig()
	fcfg.PhaseCycles = 4_000_000
	fcfg.WarmupCycles = 2_000_000
	fcfg.CapacityStep = 0.05
	fs, results := ForecastComparison(core.DefaultConfig(), StandardForecastSpecs(), []int{0, 3}, SimulateCell(fcfg))
	if err := cliutil.ErrOf(results); err != nil {
		t.Fatal(err)
	}

	ipc := map[string]float64{}
	life := map[string]float64{}
	for _, pf := range fs {
		ipc[pf.Label] = pf.InitialIPC
		life[pf.Label] = pf.MeanLifetimeMonths
		t.Logf("%-9s young IPC %.4f  lifetime %.3f months", pf.Label, pf.InitialIPC, pf.MeanLifetimeMonths)
		if !strings.HasPrefix(pf.Label, "SRAM") && (pf.CensoredMixes != 0 || math.IsInf(pf.MeanLifetimeMonths, 1)) {
			t.Errorf("%s: %d censored mixes; every hybrid policy must reach 50%% capacity", pf.Label, pf.CensoredMixes)
		}
	}

	less := func(what string, m map[string]float64, a, b string) {
		t.Helper()
		if !(m[a] < m[b]) {
			t.Errorf("%s: %s %.4f not below %s %.4f", what, a, m[a], b, m[b])
		}
	}
	less("young IPC", ipc, "TAP", "LHybrid")
	less("young IPC", ipc, "LHybrid", "CP_SD")
	less("young IPC", ipc, "CP_SD", "BH_CP")
	less("young IPC", ipc, "BH_CP", "BH")
	if !(ipc["BH"] <= ipc["SRAM16"]) {
		t.Errorf("young IPC: BH %.4f above SRAM16 %.4f", ipc["BH"], ipc["SRAM16"])
	}
	less("lifetime", life, "BH", "BH_CP")
	for _, mid := range []string{"LHybrid", "CP_SD"} {
		less("lifetime", life, "BH_CP", mid)
		less("lifetime", life, mid, "TAP")
	}

	for _, th := range []string{"CP_SD_Th4", "CP_SD_Th8"} {
		cost := 1 - ipc[th]/ipc["CP_SD"]
		gain := life[th]/life["CP_SD"] - 1
		t.Logf("%s costs %.2f%% of young IPC for %+.1f%% lifetime over CP_SD", th, 100*cost, 100*gain)
		if !(cost < 0.025) {
			t.Errorf("%s costs %.2f%% of CP_SD's young IPC, want under 2.5%%", th, 100*cost)
		}
		if !(gain >= 0.10) {
			t.Errorf("%s buys %+.1f%% lifetime over CP_SD, want at least +10%%", th, 100*gain)
		}
	}
}
