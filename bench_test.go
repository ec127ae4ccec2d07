// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its figure's data on a scaled
// configuration (QuickConfig: 256-set LLC, two representative mixes) and
// logs the rows alongside ReportMetric key values; run with
//
//	go test -bench=Fig -benchmem          # all figures
//	go test -bench=BenchmarkFig10a -v     # one figure, with the row log
//
// The cmd/ tools run the same experiments at full scale with all ten
// mixes. EXPERIMENTS.md records paper-vs-measured values.
package repro

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bdi"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/forecast"
)

// benchMixes are the representative mixes used by the harness: mix 1
// (compressible-heavy: zeusmp/gobmk/dealII/bzip2) and mix 4
// (includes the incompressible milc and highly-compressible libquantum).
var benchMixes = []int{0, 3}

func benchBase() core.Config {
	c := core.QuickConfig()
	c.EpochCycles = 250_000
	return c
}

const (
	benchWarmup  = 1_000_000
	benchMeasure = 4_000_000
)

// --- Tables -------------------------------------------------------------

func BenchmarkTable1BDI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1BDI()
	}
	b.Log("\n" + experiments.Table1BDI())
}

func BenchmarkTable2CARWR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table2CARWR(37)
	}
	b.Log("\n" + experiments.Table2CARWR(37))
}

func BenchmarkTable3Policies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table3Policies()
	}
	for _, r := range experiments.Table3Policies() {
		b.Logf("%-10s disabling=%s compression=%v nvm-aware=%v",
			r.Name, r.Granularity, r.Compression, r.NVMAware)
	}
}

func BenchmarkTable4System(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table4System(core.DefaultConfig())
	}
	b.Log("\n" + experiments.Table4System(core.DefaultConfig()))
}

func BenchmarkTable5Mixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table5Mixes()
	}
	b.Log("\n" + experiments.Table5Mixes())
}

func BenchmarkTableOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.OverheadTable()
	}
	for _, r := range experiments.OverheadTable() {
		b.Logf("%s: %d bits/frame (%.2f%% of NVM data array)",
			r.Scheme, r.BitsPerFrame, r.FractionOfNVMData*100)
	}
}

// --- Fig. 2 --------------------------------------------------------------

func BenchmarkFig2CompressionProfile(b *testing.B) {
	var rows []experiments.ClassRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Fig2CompressionProfile(2000)
	}
	for _, r := range rows {
		b.Logf("%-14s HCR %5.1f%%  LCR %5.1f%%  incomp %5.1f%%",
			r.App, r.HCR*100, r.LCR*100, r.Incompressible*100)
	}
	avg := rows[len(rows)-1]
	b.ReportMetric(avg.HCR*100, "%HCR")
	b.ReportMetric(avg.LCR*100, "%LCR")
	b.ReportMetric((avg.HCR+avg.LCR)*100, "%compressible")
}

// --- Figs. 6 & 7 ----------------------------------------------------------

var (
	sweepOnce sync.Once
	sweepVal  experiments.CPthSweep
	sweepErr  error
)

func cpthSweep(b *testing.B) experiments.CPthSweep {
	b.Helper()
	sweepOnce.Do(func() {
		sweepVal, _, sweepErr = experiments.Fig6And7CPthSweep(benchBase(), benchMixes, benchWarmup, benchMeasure)
	})
	if sweepErr != nil {
		b.Fatal(sweepErr)
	}
	return sweepVal
}

func BenchmarkFig6HitRateVsCPth(b *testing.B) {
	var s experiments.CPthSweep
	for i := 0; i < b.N; i++ {
		s = cpthSweep(b)
	}
	best := 0.0
	for _, r := range s.Rows {
		ca, rwr := s.NormalizedHitRate(r.CAHits), s.NormalizedHitRate(r.CARWRHits)
		b.Logf("CPth %2d: CA %.4f  CA_RWR %.4f (normalized hits vs BH)", r.CPth, ca, rwr)
		if rwr > best {
			best = rwr
		}
	}
	b.Logf("CP_SD line: %.4f", s.NormalizedHitRate(s.CPSDHits))
	b.ReportMetric(best, "best-CA_RWR-vs-BH")
	b.ReportMetric(s.NormalizedHitRate(s.CPSDHits), "CP_SD-vs-BH")
}

func BenchmarkFig7BytesWrittenVsCPth(b *testing.B) {
	var s experiments.CPthSweep
	for i := 0; i < b.N; i++ {
		s = cpthSweep(b)
	}
	for _, r := range s.Rows {
		b.Logf("CPth %2d: CA %.4f  CA_RWR %.4f (normalized NVM bytes vs BH)", r.CPth,
			s.NormalizedBytes(r.CANVMBytes), s.NormalizedBytes(r.CARWRNVMBytes))
	}
	b.Logf("CP_SD line: %.4f", s.NormalizedBytes(s.CPSDBytes))
	b.ReportMetric(s.NormalizedBytes(s.CPSDBytes), "CP_SD-bytes-vs-BH")
}

// --- Fig. 8 ----------------------------------------------------------------

func BenchmarkFig8OptimalCPth(b *testing.B) {
	var res experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig8OptimalCPth(benchBase(), benchMixes,
			[]float64{1.0, 0.8, 0.6}, 2, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	for i, capacity := range res.Capacities {
		row := "capacity " + fmtPct(capacity) + ":"
		for k, f := range res.ByCapacity[i] {
			row += fmtCell(res.Candidates[k], f)
		}
		b.Log(row)
	}
	// Fraction of epochs won by CPth < 58 at full capacity (paper: ~30%).
	below := 0.0
	for k, c := range res.Candidates {
		if c < 58 {
			below += res.ByCapacity[0][k]
		}
	}
	b.ReportMetric(below*100, "%epochs-optimal-below-58")
}

func fmtPct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }

func fmtCell(c int, f float64) string { return fmt.Sprintf("  %d:%.0f%%", c, f*100) }

// --- Fig. 9 ----------------------------------------------------------------

func BenchmarkFig9ThTradeoff(b *testing.B) {
	var pts []experiments.ThPoint
	var err error
	for i := 0; i < b.N; i++ {
		pts, _, err = experiments.Fig9ThTradeoff(benchBase(), benchMixes,
			[]float64{0, 4, 8}, []float64{1.0, 0.8}, benchWarmup, benchMeasure)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		b.Logf("capacity %3.0f%% Th=%1.0f: hits %.4f  NVM bytes %.4f (vs BH@100%%)",
			p.Capacity*100, p.Th, p.Hits, p.NVMBytes)
	}
}

// --- Figs. 1/10/11 (forecast family) ----------------------------------------

func quickForecastCfg() forecast.Config {
	f := forecast.DefaultConfig()
	f.WarmupCycles = 500_000
	f.PhaseCycles = 2_000_000
	f.CapacityStep = 0.1
	f.MaxPhases = 10
	return f
}

func runForecastBench(b *testing.B, mutate func(*core.Config), specs []experiments.Variant) []experiments.PolicyForecast {
	b.Helper()
	base := benchBase()
	if mutate != nil {
		mutate(&base)
	}
	var fs []experiments.PolicyForecast
	for i := 0; i < b.N; i++ {
		fs, _ = experiments.ForecastComparison(base, specs, benchMixes, experiments.SimulateCell(quickForecastCfg()))
	}
	bound := 0.0
	if up, ok := experiments.FindSpec(fs, "SRAM16"); ok {
		bound = up.InitialIPC
	}
	for _, pf := range fs {
		life := "inf"
		if !math.IsInf(pf.MeanLifetimeMonths, 1) {
			life = fmtMonths(pf.MeanLifetimeMonths)
		}
		norm := pf.InitialIPC
		if bound > 0 {
			norm /= bound
		}
		b.Logf("%-11s IPC(t=0) %.4f  norm %.4f  lifetime %s (censored %d)",
			pf.Label, pf.InitialIPC, norm, life, pf.CensoredMixes)
	}
	return fs
}

func fmtMonths(m float64) string { return fmt.Sprintf("%.2fmo", m) }

func reportLifetimeRatio(b *testing.B, fs []experiments.PolicyForecast, who, base string, metric string) {
	a, okA := experiments.FindSpec(fs, who)
	c, okC := experiments.FindSpec(fs, base)
	if okA && okC && !math.IsInf(a.MeanLifetimeMonths, 1) && c.MeanLifetimeMonths > 0 &&
		!math.IsInf(c.MeanLifetimeMonths, 1) {
		b.ReportMetric(a.MeanLifetimeMonths/c.MeanLifetimeMonths, metric)
	}
}

// BenchmarkFig1Forecast regenerates the motivating Fig. 1 comparison with
// the core curve set (upper bound, BH, LHybrid, CP_SD).
func BenchmarkFig1Forecast(b *testing.B) {
	fs := runForecastBench(b, nil, experiments.CoreForecastSpecs())
	reportLifetimeRatio(b, fs, "CP_SD", "BH", "CPSD/BH-lifetime")
	reportLifetimeRatio(b, fs, "LHybrid", "BH", "LHybrid/BH-lifetime")
}

// BenchmarkFig10aPerformanceVsLifetime runs the full Fig. 10a curve set.
func BenchmarkFig10aPerformanceVsLifetime(b *testing.B) {
	fs := runForecastBench(b, nil, experiments.StandardForecastSpecs())
	reportLifetimeRatio(b, fs, "CP_SD", "BH", "CPSD/BH-lifetime")
	reportLifetimeRatio(b, fs, "BH_CP", "BH", "BHCP/BH-lifetime")
	reportLifetimeRatio(b, fs, "CP_SD_Th8", "CP_SD", "Th8/CPSD-lifetime")
	if cp, ok := experiments.FindSpec(fs, "CP_SD"); ok {
		if lh, ok2 := experiments.FindSpec(fs, "LHybrid"); ok2 && lh.InitialIPC > 0 {
			b.ReportMetric(cp.InitialIPC/lh.InitialIPC, "CPSD/LHybrid-IPC")
		}
	}
}

// BenchmarkFig10bAsymmetry uses the 3 SRAM / 13 NVM way split (§V-C).
func BenchmarkFig10bAsymmetry(b *testing.B) {
	runForecastBench(b, func(c *core.Config) {
		c.SRAMWays, c.NVMWays = 3, 13
	}, experiments.CoreForecastSpecs())
}

// BenchmarkFig10cCoeffVariation raises the endurance cv to 0.25 (§V-D).
func BenchmarkFig10cCoeffVariation(b *testing.B) {
	fs := runForecastBench(b, func(c *core.Config) {
		c.EnduranceCV = 0.25
	}, experiments.CoreForecastSpecs())
	reportLifetimeRatio(b, fs, "CP_SD", "LHybrid", "CPSD/LHybrid-lifetime")
}

// BenchmarkFig11aL2Sensitivity doubles the L2 to 256 KB (§V-E).
func BenchmarkFig11aL2Sensitivity(b *testing.B) {
	runForecastBench(b, func(c *core.Config) {
		c.L2SizeKB = 2 * c.L2SizeKB
	}, experiments.CoreForecastSpecs())
}

// BenchmarkFig11bNVMLatency raises the NVM data-array latency 1.5x (§V-F).
func BenchmarkFig11bNVMLatency(b *testing.B) {
	runForecastBench(b, func(c *core.Config) {
		c.NVMLatencyFactor = 1.5
	}, experiments.CoreForecastSpecs())
}

// BenchmarkFig11cEqualizedCost reduces CP_SD's NVM ways to 11 and 10 so
// its total storage matches LHybrid's (§V-G).
func BenchmarkFig11cEqualizedCost(b *testing.B) {
	specs := []experiments.Variant{
		{Label: "LHybrid", Mutate: func(c *core.Config) { c.PolicyName = "LHybrid" }},
		{Label: "CP_SD", Mutate: func(c *core.Config) { c.PolicyName = "CP_SD" }},
		{Label: "CP_SD-11w", Mutate: func(c *core.Config) { c.PolicyName = "CP_SD"; c.NVMWays = 11 }},
		{Label: "CP_SD-10w", Mutate: func(c *core.Config) { c.PolicyName = "CP_SD"; c.NVMWays = 10 }},
	}
	runForecastBench(b, nil, specs)
}

// --- §IV-C epoch-size sensitivity -------------------------------------------

func BenchmarkEpochSizeSweep(b *testing.B) {
	var rows []experiments.EpochSizeRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.EpochSizeSweep(benchBase(), benchMixes[:1],
			[]uint64{250_000, 500_000, 1_000_000, 2_000_000}, benchWarmup, benchMeasure)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("epoch %8d cycles: hit rate %.4f", r.EpochCycles, r.HitRate)
	}
}

// --- Microbenchmarks of the substrate hot paths ------------------------------

func BenchmarkBDICompressMixed(b *testing.B) {
	blocks := make([][]byte, 4)
	for i := range blocks {
		blocks[i] = make([]byte, 64)
		for j := range blocks[i] {
			blocks[i][j] = byte(i * j)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bdi.Compress(blocks[i%4])
	}
}

// BenchmarkMetricsSnapshot prices the windowed-delta capture that
// hier.System.Run performs (two registry snapshots plus a delta) against
// BenchmarkEndToEndSimulation's ~ms-scale Run: it must stay well under 5%
// of the simulation hot path.
func BenchmarkMetricsSnapshot(b *testing.B) {
	cfg := benchBase()
	sys, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	sys.Run(200_000)
	reg := sys.Metrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		before := reg.Snapshot()
		_ = reg.Snapshot().Delta(before)
	}
}

func BenchmarkEndToEndSimulation(b *testing.B) {
	cfg := benchBase()
	sys, err := cfg.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Run(100_000)
	}
	b.ReportMetric(float64(sys.LLC().Stats.Hits), "LLC-hits-total")
}

// --- Ablations of the design choices called out in DESIGN.md -----------------

// ablationRun measures CP_SD with one design choice removed and reports
// hits and NVM bytes relative to the full design, at the given NVM
// capacity operating point.
func ablationRun(b *testing.B, name string, capacity float64, mutate func(*core.Config)) {
	b.Helper()
	measure := func(mod func(*core.Config)) (float64, float64) {
		var hits, bytes float64
		for _, m := range benchMixes {
			cfg := benchBase()
			cfg.MixID = m
			cfg.PolicyName = "CP_SD"
			if mod != nil {
				mod(&cfg)
			}
			sys, err := cfg.Build()
			if err != nil {
				b.Fatal(err)
			}
			core.PreAge(sys, capacity)
			s := core.Measure(sys, benchWarmup, benchMeasure)
			hits += float64(s.Hits)
			bytes += float64(s.NVMBytesWritten)
		}
		return hits, bytes
	}
	var fullH, fullB, ablH, ablB float64
	for i := 0; i < b.N; i++ {
		fullH, fullB = measure(nil)
		ablH, ablB = measure(mutate)
	}
	b.Logf("%s: hits %.4f of full design, NVM bytes %.4f of full design",
		name, ablH/fullH, ablB/fullB)
	b.ReportMetric(ablH/fullH, "hits-vs-full")
	b.ReportMetric(ablB/fullB, "bytes-vs-full")
}

// BenchmarkAblationHCROnly quantifies keeping the LCR encodings (§II-B):
// the ablation reverts to original BDI, which discards them.
func BenchmarkAblationHCROnly(b *testing.B) {
	ablationRun(b, "original-BDI (no LCR)", 1.0, func(c *core.Config) { c.AblationHCROnly = true })
}

// BenchmarkAblationHCROnlyAged repeats the LCR ablation on a 70%-capacity
// cache, where partially-worn frames can only hold compressed blocks and
// the LCR encodings earn their keep.
func BenchmarkAblationHCROnlyAged(b *testing.B) {
	ablationRun(b, "original-BDI (no LCR), 70% capacity", 0.7,
		func(c *core.Config) { c.AblationHCROnly = true })
}

// BenchmarkAblationNoInvalidate quantifies the invalidate-on-GetX flow
// (§III-A).
func BenchmarkAblationNoInvalidate(b *testing.B) {
	ablationRun(b, "no GetX invalidate", 1.0, func(c *core.Config) { c.AblationNoInvalidate = true })
}

// BenchmarkAblationNoMigration quantifies the read-reuse SRAM-victim
// migration (§IV-B).
func BenchmarkAblationNoMigration(b *testing.B) {
	ablationRun(b, "no read-reuse migration", 1.0, func(c *core.Config) { c.AblationNoMigration = true })
}

// BenchmarkEnergyComparison measures LLC energy per policy (the TAP paper
// motivates thrash-aware insertion with a 25% LLC energy reduction; this
// bench reports each policy's total relative to BH).
func BenchmarkEnergyComparison(b *testing.B) {
	var rows []experiments.EnergyRow
	for i := 0; i < b.N; i++ {
		rows, _ = experiments.EnergyComparison(benchBase(),
			[]string{"BH", "BH_CP", "LHybrid", "TAP", "CP_SD"}, benchMixes,
			benchWarmup, benchMeasure)
	}
	for _, r := range rows {
		b.Logf("%-8s %s  (%.3f of BH, %.4f mJ/KI, IPC %.4f)",
			r.Policy, r.Breakdown, r.RelativeToBH, r.PerKI, r.MeanIPC)
		switch r.Policy {
		case "TAP":
			b.ReportMetric(r.RelativeToBH, "TAP-vs-BH-energy")
		case "CP_SD":
			b.ReportMetric(r.RelativeToBH, "CPSD-vs-BH-energy")
		}
	}
}

// BenchmarkExtensionPrefetcher quantifies the L2 stride prefetcher
// extension under TAP (whose original design distinguishes prefetch
// writes) and CP_SD: IPC and NVM traffic with and without prefetching.
func BenchmarkExtensionPrefetcher(b *testing.B) {
	measure := func(name string, pf bool) (float64, uint64) {
		var ipc float64
		var bytes uint64
		for _, m := range benchMixes {
			cfg := benchBase()
			cfg.MixID = m
			cfg.PolicyName = name
			cfg.EnablePrefetcher = pf
			cfg.PrefetchDegree = 2
			sys, err := cfg.Build()
			if err != nil {
				b.Fatal(err)
			}
			s := core.Measure(sys, benchWarmup, benchMeasure)
			ipc += s.MeanIPC / float64(len(benchMixes))
			bytes += s.NVMBytesWritten
		}
		return ipc, bytes
	}
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"TAP", "CP_SD"} {
			off, offB := measure(name, false)
			on, onB := measure(name, true)
			b.Logf("%-6s IPC %.4f -> %.4f with prefetch (%+.1f%%), NVM bytes %d -> %d",
				name, off, on, (on/off-1)*100, offB, onB)
			if name == "CP_SD" && i == 0 {
				b.ReportMetric(on/off, "CPSD-prefetch-speedup")
			}
		}
	}
}

// BenchmarkExtensionRRIP compares fit-LRU (the paper's NVM replacement)
// with the fit-RRIP extension under CP_SD.
func BenchmarkExtensionRRIP(b *testing.B) {
	measure := func(rrip bool) (float64, float64) {
		var hits, ipc float64
		for _, m := range benchMixes {
			cfg := benchBase()
			cfg.MixID = m
			cfg.PolicyName = "CP_SD"
			cfg.NVMRRIP = rrip
			sys, err := cfg.Build()
			if err != nil {
				b.Fatal(err)
			}
			s := core.Measure(sys, benchWarmup, benchMeasure)
			hits += float64(s.Hits)
			ipc += s.MeanIPC / float64(len(benchMixes))
		}
		return hits, ipc
	}
	for i := 0; i < b.N; i++ {
		lruHits, lruIPC := measure(false)
		rripHits, rripIPC := measure(true)
		b.Logf("fit-LRU  hits %.0f IPC %.4f", lruHits, lruIPC)
		b.Logf("fit-RRIP hits %.0f IPC %.4f (%.3fx hits)", rripHits, rripIPC, rripHits/lruHits)
		if i == 0 {
			b.ReportMetric(rripHits/lruHits, "RRIP/LRU-hits")
		}
	}
}

// BenchmarkPerAppStudy reproduces the §IV-A per-benchmark placement
// analysis: under naive CA, incompressible applications (xz17/milc06)
// starve the NVM part while compressible ones (GemsFDTD06) flood it.
func BenchmarkPerAppStudy(b *testing.B) {
	var rows []experiments.AppRow
	var err error
	for i := 0; i < b.N; i++ {
		cfg := benchBase()
		cfg.Scale = 0.08
		cfg.PolicyName = "CA"
		rows, _, err = experiments.PerAppStudy(cfg, 300_000, 1_200_000)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.Logf("%-14s hit %.3f  NVM share %.3f  compressible %.3f",
			r.App, r.HitRate, r.NVMShare, r.CompressibleFr)
		switch r.App {
		case "xz17":
			b.ReportMetric(r.NVMShare, "xz17-NVM-share")
		case "GemsFDTD06":
			b.ReportMetric(r.NVMShare, "GemsFDTD-NVM-share")
		}
	}
}

// BenchmarkTwSensitivity verifies the paper's §IV-D observation that the
// rule is insensitive to Tw: hits and bytes barely move across Tw values.
func BenchmarkTwSensitivity(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		var hits []float64
		for _, tw := range []float64{2, 5, 10} {
			var h float64
			for _, m := range benchMixes {
				cfg := benchBase()
				cfg.MixID = m
				cfg.PolicyName = "CP_SD_Th"
				cfg.Th, cfg.Tw = 4, tw
				sys, err := cfg.Build()
				if err != nil {
					b.Fatal(err)
				}
				h += float64(core.Measure(sys, benchWarmup, benchMeasure).Hits)
			}
			hits = append(hits, h)
			b.Logf("Tw=%2.0f%%: hits %.0f", tw, h)
		}
		min, max := hits[0], hits[0]
		for _, h := range hits {
			if h < min {
				min = h
			}
			if h > max {
				max = h
			}
		}
		spread = (max - min) / min
	}
	b.ReportMetric(spread*100, "%hit-spread-across-Tw")
}
