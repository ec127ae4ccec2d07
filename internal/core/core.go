// Package core is the public orchestration layer of the reproduction: it
// turns a declarative Config — mix, policy name, geometry, endurance,
// latency factors — into a runnable simulated system, and provides the
// helpers shared by the command-line tools, the examples and the benchmark
// harness (pre-aging, windowed runs, policy registry).
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/check"
	"repro/internal/dueling"
	"repro/internal/forecast"
	"repro/internal/hier"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/nvm"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Config declares one simulated machine + workload + policy. The zero
// value is not usable; start from DefaultConfig.
//
// The JSON tags define the configuration wire format shared by
// `hybridsim -config file.json` and the simd job daemon; UnmarshalStrict
// decodes it with unknown fields rejected, overlaying a caller-supplied
// base (typically DefaultConfig) so partial documents stay valid.
type Config struct {
	// Workload.
	MixID int     `json:"mix_id"` // mix index, 0-based (Table V 0..9, skew scenarios beyond)
	Seed  uint64  `json:"seed"`   // workload and endurance sampling seed
	Scale float64 `json:"scale"`  // footprint scale relative to the scaled-down default

	// LLC geometry (Table IV: 4 SRAM + 12 NVM ways).
	LLCSets  int `json:"llc_sets"`
	SRAMWays int `json:"sram_ways"`
	NVMWays  int `json:"nvm_ways"`

	// Private levels.
	L1Sets   int `json:"l1_sets"`
	L1Ways   int `json:"l1_ways"`
	L2SizeKB int `json:"l2_size_kb"` // 128 default; §V-E uses 256
	L2Ways   int `json:"l2_ways"`

	// Policy selection; see Policies() for valid names.
	PolicyName string  `json:"policy"`
	CPth       int     `json:"cpth"` // fixed threshold for CA / CA_RWR
	Th         float64 `json:"th"`   // CP_SD_Th rule parameters (§IV-D)
	Tw         float64 `json:"tw"`

	// NVM device model.
	EnduranceMean float64 `json:"endurance_mean"`
	EnduranceCV   float64 `json:"endurance_cv"`

	// Timing.
	EpochCycles      uint64  `json:"epoch_cycles"`
	NVMLatencyFactor float64 `json:"nvm_latency_factor"` // scales the NVM data-array latency (§V-F)

	// Ablations of individual design choices (bench_test.go's ablation
	// benches quantify each against the full design).
	AblationHCROnly      bool `json:"ablation_hcr_only"`      // original BDI: discard LCR encodings
	AblationNoInvalidate bool `json:"ablation_no_invalidate"` // keep the LLC copy on GetX hits
	AblationNoMigration  bool `json:"ablation_no_migration"`  // drop read-reused SRAM victims

	// MaterializeData runs the bit-exact Fig-5 NVM data path for every
	// block (validation mode, ~10x slower; compressing policies only).
	MaterializeData bool `json:"materialize_data"`

	// EnablePrefetcher turns on the per-core L2 stride prefetcher
	// (degree PrefetchDegree, default 1), restoring TAP's demand/prefetch
	// block classes.
	EnablePrefetcher bool `json:"enable_prefetcher"`
	PrefetchDegree   int  `json:"prefetch_degree"`

	// NVMRRIP switches the NVM-part replacement from the paper's fit-LRU
	// to fit-RRIP (SRRIP) — an extension for scan-resistant victim
	// selection.
	NVMRRIP bool `json:"nvm_rrip"`

	// Tournament declares the bracket the TOURNAMENT policy runs: an
	// N-way generalization of the paper's set dueling where each
	// candidate is a whole insertion policy (plus optional per-candidate
	// CPth) sampled on its own share of sets. nil selects
	// DefaultTournament; ignored by every other policy. The pointer is
	// omitted from the canonical form when nil, so pre-tournament cache
	// keys and golden configs are unchanged.
	Tournament *TournamentConfig `json:"tournament,omitempty"`

	// Coloring selects inter-set wear-leveling (cache coloring): a
	// bijective logical-set→physical-row remap applied to every LLC
	// lookup, with rotation/wear-feedback schemes advancing at epoch
	// boundaries. nil disables coloring; the
	// pointer is omitted from the canonical form when nil, so
	// pre-coloring cache keys and golden configs are unchanged.
	Coloring *ColoringConfig `json:"coloring,omitempty"`

	// LLCBanks is the number of address-interleaved LLC banks whose
	// data-array occupancy is modelled (Table IV: 4). 0 disables bank
	// contention.
	LLCBanks int `json:"llc_banks"`

	// CheckEvery, when non-zero, attaches the runtime invariant checker
	// to every system this config builds: the full suite (LLC structure,
	// LRU stack, fault-map consistency, stats conservation, metrics
	// registry agreement) runs every CheckEvery LLC accesses. Violations
	// accumulate on the checker, reachable via hier.System.AccessProbe.
	CheckEvery uint64 `json:"check_every"`

	// Shards is kept so that documents and canonical forms written while
	// a set-sharded engine existed still decode and hash as before. Only
	// 0 and 1 are valid, and both select the one sequential engine;
	// parallelism comes from running many jobs at once (POST /v1/sweeps).
	Shards int `json:"shards"`
}

// DefaultConfig returns the scaled default system: 1 MB 16-way LLC
// (4 SRAM + 12 NVM ways), 128 KB L2, CP_SD policy, mix 0.
func DefaultConfig() Config {
	return Config{
		MixID:            0,
		Seed:             1,
		Scale:            0.25,
		LLCSets:          1024,
		SRAMWays:         4,
		NVMWays:          12,
		L1Sets:           128,
		L1Ways:           4,
		L2SizeKB:         128,
		L2Ways:           16,
		PolicyName:       "CP_SD",
		CPth:             58,
		Th:               4, // §IV-D operating point; only used by CP_SD_Th
		Tw:               5,
		EnduranceMean:    1e10,
		EnduranceCV:      0.2,
		EpochCycles:      2_000_000,
		NVMLatencyFactor: 1.0,
		LLCBanks:         4,
	}
}

// QuickConfig returns a smaller configuration suitable for tests and the
// benchmark harness: 256-set LLC, proportionally smaller footprints and
// L2, shorter epochs. Working sets still overflow the LLC so policies
// remain differentiated, but they do not reproduce the paper's shapes:
// Fig 10a's orderings invert, with CP_SD's IPC above BH's and CP_SD's
// lifetime below LHybrid's. Read a QuickConfig ordering as a pinned
// behaviour of the model, never as a paper result; DefaultConfig holds
// the shapes.
func QuickConfig() Config {
	c := DefaultConfig()
	c.LLCSets = 256
	c.Scale = 0.15
	c.L2SizeKB = 64
	c.EpochCycles = 500_000
	return c
}

// Latencies derives the hierarchy latencies from the config, applying the
// NVM latency factor to the NVM data-array portion (8 cycles of the
// 32-cycle load-use delay, Table IV).
func (c Config) Latencies() hier.Latencies {
	lat := hier.DefaultLatencies()
	f := c.NVMLatencyFactor
	if f <= 0 {
		f = 1
	}
	base := lat.LLCNVM - 8 // tag + routing portion
	lat.LLCNVM = base + int(math.Round(8*f))
	return lat
}

// Build constructs the simulated system described by the config. The
// config is validated first; a CheckEvery > 0 config comes back with the
// invariant checker already attached.
func (c Config) Build() (*hier.System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	apps, err := workload.NewMix(c.MixID, c.Seed, c.Scale)
	if err != nil {
		return nil, err
	}
	progs := make([]hier.Program, len(apps))
	for i, a := range apps {
		progs[i] = a
	}
	return c.BuildFromPrograms(progs)
}

// BuildFromPrograms constructs the simulated system with caller-supplied
// per-core stimulus programs — typically trace replays loaded through
// cliutil.LoadMixPrograms — instead of the mix's synthetic applications.
// Everything else (policy, LLC, hierarchy, invariant checker) is built
// exactly as Build does it, so a replayed trace recorded from the same
// mix/seed/scale reproduces the direct run bit for bit.
func (c Config) BuildFromPrograms(progs []hier.Program) (*hier.System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(progs) == 0 {
		return nil, fmt.Errorf("core: no programs")
	}
	pol, thr, sram, nvmW, err := c.buildPolicy()
	if err != nil {
		return nil, err
	}
	mapper, err := c.buildColoring()
	if err != nil {
		return nil, err
	}
	llc := hybrid.New(hybrid.Config{
		Sets:             c.LLCSets,
		SRAMWays:         sram,
		NVMWays:          nvmW,
		Policy:           pol,
		Thresholds:       thr,
		Endurance:        nvm.EnduranceModel{Mean: c.EnduranceMean, CV: c.EnduranceCV},
		Sampler:          stats.NewRNG(c.Seed ^ 0xE7D5),
		HCROnly:          c.AblationHCROnly,
		NoGetXInvalidate: c.AblationNoInvalidate,
		MaterializeData:  c.MaterializeData,
		NVMReplacement:   replacementOf(c.NVMRRIP),
		SetMapper:        mapper,
		SetMapperAdvance: true,
	})
	hcfg := hier.Config{
		L1Sets: c.L1Sets, L1Ways: c.L1Ways,
		L2Sets: c.L2SizeKB * 1024 / (c.L2Ways * 64), L2Ways: c.L2Ways,
		EpochCycles:    c.EpochCycles,
		IssueWidth:     4,
		Lat:            c.Latencies(),
		Prefetch:       c.EnablePrefetcher,
		PrefetchDegree: c.PrefetchDegree,
		Banks:          c.LLCBanks,
	}
	sys := hier.NewFromPrograms(hcfg, llc, progs)
	if c.CheckEvery > 0 {
		check.Attach(sys, check.Options{Every: c.CheckEvery})
	}
	return sys, nil
}

func replacementOf(rrip bool) hybrid.Replacement {
	if rrip {
		return hybrid.FitRRIP
	}
	return hybrid.FitLRU
}

// Dueling returns the system's dueling controller, if its policy uses one.
func Dueling(sys *hier.System) (*dueling.Controller, bool) {
	d, ok := sys.LLC().Thresholds().(*dueling.Controller)
	return d, ok
}

// PreAge wears the system's NVM array uniformly until its effective
// capacity reaches the target fraction, then drops LLC entries whose
// frames can no longer hold them. It reproduces the paper's aged-cache
// operating points (Fig 8a, Fig 9: 100/90/80% capacities).
func PreAge(sys *hier.System, targetCapacity float64) {
	arr := sys.LLC().Array()
	if arr == nil || targetCapacity >= 1 {
		return
	}
	for _, f := range arr.Frames() {
		f.ResetPhase()
		f.RecordWrite(nvm.FrameBytes) // uniform unit rate
	}
	forecast.Age(arr, 1.0, targetCapacity, math.MaxFloat64)
	arr.ResetPhase()
	sys.LLC().InvalidateUnfit()
}

// Summary condenses one measured run window.
type Summary struct {
	Policy          string
	MeanIPC         float64
	HitRate         float64
	Hits            uint64
	Misses          uint64
	NVMBytesWritten uint64
	NVMBlockWrites  uint64
	SRAMHits        uint64
	NVMHits         uint64
	Inserts         uint64
	Migrations      uint64
	Capacity        float64

	// Metrics is the full registry delta of the measured window — every
	// counter and gauge of the system, under their hierarchical names.
	Metrics metrics.Snapshot
}

// Measure warms the system up and measures a window, returning a
// summary: MeasureCtx without hooks, under a context that never cancels
// (MeasureCtx's only error), so there is no error to return.
func Measure(sys *hier.System, warmupCycles, measureCycles uint64) Summary {
	s, _ := MeasureCtx(context.Background(), sys, warmupCycles, measureCycles, RunHooks{})
	return s
}

// MeasureMixes runs the same config across several mixes and returns the
// per-mix summaries plus the across-mix means of IPC, hit rate and NVM
// bytes (the paper averages its ten multiprogrammed mixes).
func MeasureMixes(base Config, mixes []int, warmup, measure uint64) ([]Summary, Summary, error) {
	if len(mixes) == 0 {
		return nil, Summary{}, fmt.Errorf("core: no mixes")
	}
	out := make([]Summary, 0, len(mixes))
	var mean Summary
	for _, m := range mixes {
		cfg := base
		cfg.MixID = m
		sys, err := cfg.Build()
		if err != nil {
			return nil, Summary{}, err
		}
		s := Measure(sys, warmup, measure)
		out = append(out, s)
		mean.MeanIPC += s.MeanIPC
		mean.HitRate += s.HitRate
		mean.Hits += s.Hits
		mean.Misses += s.Misses
		mean.NVMBytesWritten += s.NVMBytesWritten
		mean.NVMBlockWrites += s.NVMBlockWrites
	}
	n := float64(len(mixes))
	mean.Policy = out[0].Policy
	mean.MeanIPC /= n
	mean.HitRate /= n
	mean.Hits = uint64(float64(mean.Hits) / n)
	mean.Misses = uint64(float64(mean.Misses) / n)
	mean.NVMBytesWritten = uint64(float64(mean.NVMBytesWritten) / n)
	mean.NVMBlockWrites = uint64(float64(mean.NVMBlockWrites) / n)
	return out, mean, nil
}

// AllMixes returns every registered mix index: the paper's Table V set
// (0..9) plus the skewed-traffic scenario mixes.
func AllMixes() []int {
	out := make([]int, len(workload.Mixes()))
	for i := range out {
		out[i] = i
	}
	return out
}

// SortedPolicyNames returns the policy registry sorted alphabetically
// (diagnostic helper for CLIs).
func SortedPolicyNames() []string {
	ps := Policies()
	sort.Strings(ps)
	return ps
}

// BuildPolicy resolves the config's policy selection into the policy
// value, its threshold provider (nil when not applicable) and the
// SRAM/NVM way split. Exported for experiment code that assembles custom
// systems (e.g. homogeneous per-application studies).
func BuildPolicy(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
	return c.buildPolicy()
}
