package core

import (
	"errors"
	"fmt"

	"repro/internal/workload"
)

// Geometry and parameter ceilings enforced by Validate. The lower
// bounds catch nonsense; these upper bounds catch resource abuse — a
// submitted config allocates memory proportional to its geometry inside
// the worker, so the simd daemon must reject an absurd document at the
// API boundary (allowlist hardening), not OOM at Build time. The limits
// are an order of magnitude past any configuration the paper's
// methodology needs.
const (
	MaxLLCSets          = 1 << 20
	MaxLLCWays          = 128 // SRAM + NVM ways per set
	MaxL1Sets           = 1 << 18
	MaxL1Ways           = 128
	MaxL2SizeKB         = 1 << 20 // 1 GB
	MaxL2Ways           = 128
	MaxScale            = 1024
	MaxEpochCycles      = uint64(1) << 44 // 1<<40 is a legitimate "one endless epoch" idiom
	MaxEnduranceMean    = 1e18
	MaxEnduranceCV      = 10
	MaxNVMLatencyFactor = 1024
	MaxPrefetchDegree   = 64
	MaxLLCBanks         = 1024
)

// Validate reports every configuration error at once (errors.Join), so a
// CLI user fixing a config sees the full list rather than one complaint
// per run. Build calls it before constructing anything; the command-line
// tools call it right after flag parsing, and the simd daemon before a
// job or sweep child is queued, so bad geometry fails at the submission
// boundary instead of inside a worker.
func (c Config) Validate() error {
	var errs []error
	bad := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Errorf("core: "+format, args...))
	}

	if n := len(workload.Mixes()); c.MixID < 0 || c.MixID >= n {
		bad("mix id %d out of range [0,%d)", c.MixID, n)
	}
	if c.Scale <= 0 || c.Scale > MaxScale {
		bad("scale %v outside (0,%d]", c.Scale, MaxScale)
	}
	if c.LLCSets < 1 || c.LLCSets > MaxLLCSets {
		bad("LLC sets %d outside [1,%d]", c.LLCSets, MaxLLCSets)
	}
	if c.SRAMWays < 0 || c.NVMWays < 0 || c.SRAMWays+c.NVMWays < 1 {
		bad("bad LLC way split %d SRAM + %d NVM", c.SRAMWays, c.NVMWays)
	} else if c.SRAMWays+c.NVMWays > MaxLLCWays {
		bad("LLC way split %d SRAM + %d NVM exceeds %d ways", c.SRAMWays, c.NVMWays, MaxLLCWays)
	}
	if c.L1Sets < 1 || c.L1Ways < 1 || c.L1Sets > MaxL1Sets || c.L1Ways > MaxL1Ways {
		bad("bad L1 geometry %dx%d (limits %dx%d)", c.L1Sets, c.L1Ways, MaxL1Sets, MaxL1Ways)
	}
	if c.L2Ways < 1 || c.L2SizeKB < 1 || c.L2Ways > MaxL2Ways || c.L2SizeKB > MaxL2SizeKB {
		bad("bad L2 geometry %d KB, %d ways (limits %d KB, %d ways)", c.L2SizeKB, c.L2Ways, MaxL2SizeKB, MaxL2Ways)
	} else if c.L2SizeKB*1024/(c.L2Ways*64) < 1 {
		bad("L2 of %d KB cannot hold %d ways of 64B blocks", c.L2SizeKB, c.L2Ways)
	}
	spec, known := specOf(c.PolicyName)
	if !known {
		bad("unknown policy %q (valid: %v)", c.PolicyName, Policies())
	}
	if known && spec.UsesCPth && (c.CPth < 1 || c.CPth > 64) {
		bad("CPth %d outside [1,64]", c.CPth)
	}
	if c.PolicyName == "TOURNAMENT" && c.Tournament != nil {
		if err := c.validateTournament(c.Tournament); err != nil {
			errs = append(errs, err)
		}
	}
	if c.Coloring != nil {
		if err := c.validateColoring(c.Coloring); err != nil {
			errs = append(errs, err)
		}
	}
	if c.Th < 0 || c.Tw < 0 {
		bad("negative CP_SD_Th parameters Th=%v Tw=%v", c.Th, c.Tw)
	}
	if c.EnduranceMean <= 0 || c.EnduranceMean > MaxEnduranceMean {
		bad("endurance mean %v outside (0,%g]", c.EnduranceMean, float64(MaxEnduranceMean))
	}
	if c.EnduranceCV < 0 || c.EnduranceCV > MaxEnduranceCV {
		bad("endurance CV %v outside [0,%d]", c.EnduranceCV, MaxEnduranceCV)
	}
	if c.EpochCycles < 1 || c.EpochCycles > MaxEpochCycles {
		bad("epoch of %d cycles outside [1,%d]", c.EpochCycles, MaxEpochCycles)
	}
	if c.NVMLatencyFactor < 0 || c.NVMLatencyFactor > MaxNVMLatencyFactor {
		bad("NVM latency factor %v outside [0,%d]", c.NVMLatencyFactor, MaxNVMLatencyFactor)
	}
	if c.PrefetchDegree < 0 || c.PrefetchDegree > MaxPrefetchDegree {
		bad("prefetch degree %d outside [0,%d]", c.PrefetchDegree, MaxPrefetchDegree)
	}
	if c.LLCBanks < 0 || c.LLCBanks > MaxLLCBanks {
		bad("LLC bank count %d outside [0,%d]", c.LLCBanks, MaxLLCBanks)
	}
	if c.Shards < 0 || c.Shards > 1 {
		bad("shards %d: only 0 or 1 is valid (the sequential engine); run configurations in parallel with POST /v1/sweeps", c.Shards)
	}
	return errors.Join(errs...)
}
