// Package experiments reproduces every table and figure of the paper's
// evaluation. Each experiment is a pure function from configuration to a
// structured result; the cmd tools and the benchmark harness render these
// to text. EXPERIMENTS.md records paper-vs-measured values.
//
// Every figure is a grid of variants crossed with mixes; runGrid runs
// each (variant, mix) cell on the shared cliutil pool, and each driver
// folds the cells over the mixes. Results equal the serial order because
// each task writes only to its own cell.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bdi"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/nvm"
	"repro/internal/policy"
	"repro/internal/workload"
)

// ClassRow is one bar of Fig. 2: an application's block population by
// compression class, as measured by the real BDI compressor over the
// application's generated contents.
type ClassRow struct {
	App            string
	HCR            float64
	LCR            float64
	Incompressible float64
}

// Fig2CompressionProfile measures the compression-class distribution of
// every profiled application plus the average row (paper: 49% HCR,
// 29% LCR, 22% incompressible on average).
func Fig2CompressionProfile(samplesPerApp int) []ClassRow {
	profs := workload.Profiles()
	names := make([]string, 0, len(profs))
	for n, p := range profs {
		if p.Synthetic {
			continue // not part of the paper's Fig. 2 application set
		}
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]ClassRow, 0, len(names)+1)
	var avg ClassRow
	for _, name := range names {
		app, err := workload.NewApp(profs[name], 0, 42)
		if err != nil {
			panic(err) // profiles are validated by construction
		}
		var hcr, lcr, inc int
		for b := 0; b < samplesPerApp; b++ {
			c := bdi.Compress(app.Content(uint64(b % profs[name].FootprintBlocks)))
			switch bdi.ClassOf(c.Enc) {
			case bdi.ClassHCR:
				hcr++
			case bdi.ClassLCR:
				lcr++
			default:
				inc++
			}
		}
		n := float64(samplesPerApp)
		row := ClassRow{App: name, HCR: float64(hcr) / n, LCR: float64(lcr) / n,
			Incompressible: float64(inc) / n}
		rows = append(rows, row)
		avg.HCR += row.HCR
		avg.LCR += row.LCR
		avg.Incompressible += row.Incompressible
	}
	k := float64(len(names))
	rows = append(rows, ClassRow{App: "average", HCR: avg.HCR / k, LCR: avg.LCR / k,
		Incompressible: avg.Incompressible / k})
	return rows
}

// Table1BDI renders the BDI encoding table (Table I).
func Table1BDI() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %5s %6s %5s %6s\n", "Encoding", "Base", "Delta", "Size", "Class")
	for _, s := range bdi.Specs() {
		base, delta := "-", "-"
		if s.Base > 0 {
			base = fmt.Sprintf("%d", s.Base)
		}
		if s.Delta > 0 {
			delta = fmt.Sprintf("%d", s.Delta)
		}
		fmt.Fprintf(&b, "%-14s %5s %6s %5d %6s\n", s.Name, base, delta, s.Size,
			bdi.ClassOf(s.Enc))
	}
	return b.String()
}

// Table2CARWR renders the CA_RWR decision matrix (Table II) by querying
// the actual policy implementation.
func Table2CARWR(cpth int) string {
	p := policy.CARWR{}
	var b strings.Builder
	fmt.Fprintf(&b, "CA_RWR insertion targets (CPth = %d)\n", cpth)
	fmt.Fprintf(&b, "%-12s %-14s %-14s\n", "Reuse", "small block", "big block")
	for _, r := range []hybrid.ReuseClass{hybrid.ReuseNone, hybrid.ReuseRead, hybrid.ReuseWrite} {
		small := p.Target(hybrid.InsertInfo{CBSize: cpth, CPth: cpth, Tag: hybrid.BlockTag{Reuse: r}})
		big := p.Target(hybrid.InsertInfo{CBSize: 64, CPth: cpth, Tag: hybrid.BlockTag{Reuse: r}})
		fmt.Fprintf(&b, "%-12s %-14s %-14s\n", r, small, big)
	}
	return b.String()
}

// Table3Row is one line of the policy summary (Table III).
type Table3Row struct {
	Name        string
	Granularity nvm.Granularity
	Compression bool
	NVMAware    bool
}

// Table3Policies returns the tested-policy summary of Table III, read
// from the Traits of each policy as the registry builds it: compression
// implies byte disabling, and every non-global policy is NVM-aware.
func Table3Policies() []Table3Row {
	var rows []Table3Row
	for _, name := range []string{"BH", "BH_CP", "LHybrid", "TAP", "CP_SD", "CP_SD_Th"} {
		cfg := core.DefaultConfig()
		cfg.PolicyName = name
		pol, _, _, _, err := core.BuildPolicy(cfg)
		if err != nil {
			panic(err) // the names are registry constants
		}
		tr := pol.Traits()
		rows = append(rows, Table3Row{name, tr.Granularity(), tr.Compressed, !tr.Global})
	}
	return rows
}

// Table4System renders the system specification (Table IV) for a config.
func Table4System(cfg core.Config) string {
	lat := cfg.Latencies()
	var b strings.Builder
	fmt.Fprintf(&b, "Cores            4, out-of-order, 3.5 GHz (issue width 4 effective)\n")
	fmt.Fprintf(&b, "L1               %d sets x %d ways (64 B lines), %d-cycle load-use\n",
		cfg.L1Sets, cfg.L1Ways, lat.L1Hit)
	fmt.Fprintf(&b, "L2               %d KB, %d ways, %d-cycle load-use\n",
		cfg.L2SizeKB, cfg.L2Ways, lat.L2Hit)
	fmt.Fprintf(&b, "Hybrid LLC       %d sets: %d SRAM ways (%d-cycle), %d NVM ways (%d-cycle +%d decomp)\n",
		cfg.LLCSets, cfg.SRAMWays, lat.LLCSRAM, cfg.NVMWays, lat.LLCNVM, lat.Decompress)
	fmt.Fprintf(&b, "NVM endurance    mean %.2g writes, cv %.2f\n", cfg.EnduranceMean, cfg.EnduranceCV)
	fmt.Fprintf(&b, "Main memory      %d-cycle access\n", lat.Memory)
	fmt.Fprintf(&b, "Epoch            %d cycles (set dueling)\n", cfg.EpochCycles)
	return b.String()
}

// Table5Mixes renders the workload mixes (Table V).
func Table5Mixes() string {
	var b strings.Builder
	for i, mix := range workload.Mixes() {
		fmt.Fprintf(&b, "mix %-2d  %s\n", i+1, strings.Join(mix, " "))
	}
	return b.String()
}

// OverheadRow quantifies the §V-G metadata overhead discussion.
type OverheadRow struct {
	Scheme            string
	BitsPerFrame      int
	FractionOfNVMData float64 // fault-map bits over NVM data-array bits
}

// OverheadTable returns the fault-map storage overhead for both disabling
// granularities (paper: byte-level fault map = 12.3% of the NVM data
// array; our frame stores 66 B so the exact figure is 66/(66*8) = 12.5%).
func OverheadTable() []OverheadRow {
	return []OverheadRow{
		{"frame-disabling (BH, LHybrid, TAP)", 1, 1.0 / float64(nvm.FrameBytes*8)},
		{"byte-disabling (BH_CP, CP_SD)", nvm.FrameBytes, 1.0 / 8.0},
	}
}
