package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/dueling"
	"repro/internal/forecast"
)

func TestFig2Profile(t *testing.T) {
	rows := Fig2CompressionProfile(1500)
	if len(rows) != 21 { // 20 apps + average
		t.Fatalf("%d rows", len(rows))
	}
	var avg ClassRow
	for _, r := range rows {
		if r.App == "average" {
			avg = r
		}
		if s := r.HCR + r.LCR + r.Incompressible; math.Abs(s-1) > 1e-9 {
			t.Errorf("%s fractions sum to %v", r.App, s)
		}
	}
	// Paper: ~78%% compressible on average (49 HCR + 29 LCR).
	if c := avg.HCR + avg.LCR; c < 0.6 || c > 0.9 {
		t.Errorf("average compressible %.3f outside [0.6,0.9]", c)
	}
	// xz17 must be (nearly) incompressible, GemsFDTD06 highly compressible.
	for _, r := range rows {
		switch r.App {
		case "xz17":
			if r.Incompressible < 0.9 {
				t.Errorf("xz17 incompressible %.3f", r.Incompressible)
			}
		case "GemsFDTD06":
			if r.HCR < 0.85 {
				t.Errorf("GemsFDTD06 HCR %.3f", r.HCR)
			}
		}
	}
}

func TestTables(t *testing.T) {
	t1 := Table1BDI()
	for _, want := range []string{"Zeros", "B8D1", "Uncompressed", "HCR", "LCR"} {
		if !strings.Contains(t1, want) {
			t.Errorf("Table I missing %q:\n%s", want, t1)
		}
	}
	t2 := Table2CARWR(37)
	if !strings.Contains(t2, "read") || !strings.Contains(t2, "NVM") {
		t.Errorf("Table II malformed:\n%s", t2)
	}
	if rows := Table3Policies(); len(rows) != 6 {
		t.Errorf("Table III has %d rows", len(rows))
	}
	t4 := Table4System(core.DefaultConfig())
	if !strings.Contains(t4, "Hybrid LLC") || !strings.Contains(t4, "endurance") {
		t.Errorf("Table IV malformed:\n%s", t4)
	}
	t5 := Table5Mixes()
	if !strings.Contains(t5, "mix 10") || !strings.Contains(t5, "zeusmp06") {
		t.Errorf("Table V malformed:\n%s", t5)
	}
}

func TestOverheadTable(t *testing.T) {
	rows := OverheadTable()
	if len(rows) != 2 {
		t.Fatal("want two granularities")
	}
	if rows[1].FractionOfNVMData != 0.125 {
		t.Errorf("byte-disabling overhead %v, want 0.125 (paper ~12.3%%)", rows[1].FractionOfNVMData)
	}
	if rows[0].FractionOfNVMData >= rows[1].FractionOfNVMData {
		t.Error("frame disabling must be cheaper than byte disabling")
	}
}

func quickBase() core.Config {
	c := core.QuickConfig()
	c.EpochCycles = 250_000
	return c
}

func TestFig6And7Shape(t *testing.T) {
	sweep, taskResults, err := Fig6And7CPthSweep(quickBase(), []int{0}, 300_000, 1_200_000)
	if err != nil {
		t.Fatal(err)
	}
	if fails := cliutil.Failures(taskResults); len(fails) != 0 {
		t.Fatalf("task failures: %+v", fails)
	}
	if len(sweep.Rows) != len(dueling.DefaultCandidates) {
		t.Fatalf("%d rows", len(sweep.Rows))
	}
	if sweep.BHHits == 0 || sweep.BHNVMBytes == 0 {
		t.Fatal("BH reference empty")
	}
	// Fig 7 headline shape: NVM bytes written increase with CPth.
	first := sweep.Rows[0]
	last := sweep.Rows[len(sweep.Rows)-1]
	if last.CANVMBytes <= first.CANVMBytes {
		t.Errorf("CA NVM bytes should grow with CPth: %v -> %v", first.CANVMBytes, last.CANVMBytes)
	}
	// CA_RWR writes less than CA at the top threshold (write-reuse blocks
	// diverted to SRAM, §IV-B).
	if last.CARWRNVMBytes >= last.CANVMBytes {
		t.Errorf("CA_RWR bytes %v !< CA %v at CPth=64", last.CARWRNVMBytes, last.CANVMBytes)
	}
	// All policies write no more NVM bytes than BH.
	for _, r := range sweep.Rows {
		if sweep.NormalizedBytes(r.CARWRNVMBytes) > 1.05 {
			t.Errorf("CPth %d: CA_RWR normalized bytes %.2f > 1", r.CPth, sweep.NormalizedBytes(r.CARWRNVMBytes))
		}
	}
	if sweep.CPSDHits == 0 || sweep.CPSDBytes == 0 {
		t.Fatal("CP_SD line empty")
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8OptimalCPth(quickBase(), []int{0, 3}, []float64{1.0, 0.8}, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ByCapacity) != 2 {
		t.Fatalf("%d capacity rows", len(res.ByCapacity))
	}
	for i, dist := range res.ByCapacity {
		var sum float64
		for _, f := range dist {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("capacity %v distribution sums to %v", res.Capacities[i], sum)
		}
	}
	if len(res.ByMix) != 2 || res.ByMix[0] == nil {
		t.Fatal("per-mix distributions missing")
	}
}

func TestFig9Shape(t *testing.T) {
	pts, _, err := Fig9ThTradeoff(quickBase(), []int{0}, []float64{0, 8}, []float64{1.0}, 300_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d points", len(pts))
	}
	p0, p8 := pts[0], pts[1]
	if p0.Th != 0 || p8.Th != 8 {
		t.Fatal("point order wrong")
	}
	// Th=8 must not write more NVM bytes than Th=0 (it only ever trades
	// hits for fewer writes).
	if p8.NVMBytes > p0.NVMBytes*1.02 {
		t.Errorf("Th8 bytes %.3f > Th0 %.3f", p8.NVMBytes, p0.NVMBytes)
	}
}

func TestEpochSizeSweep(t *testing.T) {
	rows, err := EpochSizeSweep(quickBase(), []int{0}, []uint64{250_000, 1_000_000}, 300_000, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].HitRate <= 0 || rows[1].HitRate <= 0 {
		t.Fatalf("rows %+v", rows)
	}
}

func TestForecastComparisonQuick(t *testing.T) {
	base := quickBase()
	base.EnduranceMean = 2e4 // ages fast enough for the test
	fcfg := forecast.DefaultConfig()
	fcfg.WarmupCycles = 200_000
	fcfg.PhaseCycles = 800_000
	fcfg.CapacityStep = 0.125
	fcfg.MaxPhases = 8
	specs := []Variant{policyVariant("BH"), policyVariant("CP_SD")}
	fs, taskResults := ForecastComparison(base, specs, []int{0}, SimulateCell(fcfg))
	if fails := cliutil.Failures(taskResults); len(fails) != 0 {
		t.Fatalf("task failures: %+v", fails)
	}
	if len(fs) != 2 {
		t.Fatalf("%d forecasts", len(fs))
	}
	bh, ok := FindSpec(fs, "BH")
	if !ok || len(bh.PerMix) != 1 {
		t.Fatal("BH forecast missing")
	}
	if bh.InitialIPC <= 0 {
		t.Fatal("no initial IPC")
	}
	if bh.IPCAt(0) <= 0 {
		t.Fatal("IPCAt(0) empty")
	}
	if _, ok := FindSpec(fs, "nope"); ok {
		t.Fatal("FindSpec false positive")
	}
}

func TestStandardSpecsCoverPaperCurves(t *testing.T) {
	labels := map[string]bool{}
	for _, s := range StandardForecastSpecs() {
		labels[s.Label] = true
	}
	for _, want := range []string{"SRAM16", "SRAM4", "BH", "BH_CP", "LHybrid", "TAP", "CP_SD", "CP_SD_Th4", "CP_SD_Th8"} {
		if !labels[want] {
			t.Errorf("missing curve %s", want)
		}
	}
	if len(CoreForecastSpecs()) != 4 {
		t.Errorf("core specs = %d", len(CoreForecastSpecs()))
	}
}

func TestNormalizeTo(t *testing.T) {
	if NormalizeTo(5, 10) != 0.5 || NormalizeTo(5, 0) != 0 {
		t.Fatal("NormalizeTo wrong")
	}
}

func TestEnergyComparison(t *testing.T) {
	rows, taskResults := EnergyComparison(quickBase(), []string{"BH", "LHybrid", "CP_SD"}, []int{0}, 300_000, 1_500_000)
	if fails := cliutil.Failures(taskResults); len(fails) != 0 {
		t.Fatalf("task failures: %+v", fails)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	var bh, lh, cp *EnergyRow
	for i := range rows {
		switch rows[i].Policy {
		case "BH":
			bh = &rows[i]
		case "LHybrid":
			lh = &rows[i]
		case "CP_SD":
			cp = &rows[i]
		}
		if rows[i].Breakdown.Total() <= 0 || rows[i].PerKI <= 0 {
			t.Fatalf("row %+v has no energy", rows[i])
		}
	}
	if bh.RelativeToBH != 1 {
		t.Errorf("BH relative = %v", bh.RelativeToBH)
	}
	// NVM-write-avoiding policies must not exceed BH energy: LHybrid and
	// CP_SD both cut the expensive NVM write traffic drastically.
	if lh.RelativeToBH > 1.0 {
		t.Errorf("LHybrid energy %.3f of BH; expected at or below 1", lh.RelativeToBH)
	}
	if cp.RelativeToBH > 1.0 {
		t.Errorf("CP_SD energy %.3f of BH; expected at or below 1", cp.RelativeToBH)
	}
}

// TestEnergyComparisonWithoutBH checks that a comparison without a BH
// row marks every ratio to BH as missing rather than reporting 0.
func TestEnergyComparisonWithoutBH(t *testing.T) {
	rows, taskResults := EnergyComparison(quickBase(), []string{"CP_SD"}, []int{0}, 100_000, 400_000)
	if fails := cliutil.Failures(taskResults); len(fails) != 0 {
		t.Fatalf("task failures: %+v", fails)
	}
	if len(rows) != 1 || !math.IsNaN(rows[0].RelativeToBH) {
		t.Fatalf("rows %+v: want one CP_SD row with a NaN ratio to BH", rows)
	}
}

func TestPerAppStudy(t *testing.T) {
	cfg := quickBase()
	cfg.Scale = 0.08 // keep the 20-app sweep fast
	cfg.PolicyName = "CA"
	rows, taskResults, err := PerAppStudy(cfg, 200_000, 800_000)
	if err != nil {
		t.Fatal(err)
	}
	if fails := cliutil.Failures(taskResults); len(fails) != 0 {
		t.Fatalf("task failures: %+v", fails)
	}
	if len(rows) != 20 {
		t.Fatalf("%d rows, want 20 applications", len(rows))
	}
	byName := map[string]AppRow{}
	for _, r := range rows {
		byName[r.App] = r
		if r.HitRate < 0 || r.HitRate > 1 || r.NVMShare < 0 || r.NVMShare > 1 {
			t.Fatalf("row out of range: %+v", r)
		}
	}
	// §IV-A pathology under CA: incompressible apps barely touch NVM,
	// fully compressible ones put almost everything there.
	if xz := byName["xz17"]; xz.NVMShare > 0.15 {
		t.Errorf("xz17 NVM share %.3f under CA; should be near zero", xz.NVMShare)
	}
	if gems := byName["GemsFDTD06"]; gems.NVMShare < 0.7 {
		t.Errorf("GemsFDTD06 NVM share %.3f under CA; should be near one", gems.NVMShare)
	}
	cfg.PolicyName = "NOPE"
	if _, _, err := PerAppStudy(cfg, 1, 1); err == nil {
		t.Error("unknown policy accepted")
	}
}

// TestPerAppStudyHonoursConfig pins that the per-app study builds its
// systems from the whole config, ablations and NVM replacement
// included: flipping either knob must move the rows.
func TestPerAppStudyHonoursConfig(t *testing.T) {
	study := func(cfg core.Config) []AppRow {
		t.Helper()
		cfg.Scale = 0.08
		cfg.PolicyName = "CA"
		rows, taskResults, err := PerAppStudy(cfg, 100_000, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		if fails := cliutil.Failures(taskResults); len(fails) != 0 {
			t.Fatalf("task failures: %+v", fails)
		}
		return rows
	}
	base := study(quickBase())
	rrip := quickBase()
	rrip.NVMRRIP = true
	hcr := quickBase()
	hcr.AblationHCROnly = true
	for name, cfg := range map[string]core.Config{"NVMRRIP": rrip, "AblationHCROnly": hcr} {
		if rows := study(cfg); reflect.DeepEqual(rows, base) {
			t.Errorf("%s left every per-app row unchanged", name)
		}
	}
}
