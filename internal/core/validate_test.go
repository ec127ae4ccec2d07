package core

import (
	"strings"
	"testing"

	"repro/internal/check"
)

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateAcceptsSequentialShards pins that the two shard counts
// written while the set-sharded engine existed for sequential runs (0 and
// 1) still validate and build.
func TestValidateAcceptsSequentialShards(t *testing.T) {
	for _, n := range []int{0, 1} {
		cfg := QuickConfig()
		cfg.Shards = n
		if _, err := cfg.Build(); err != nil {
			t.Fatalf("shards=%d: %v", n, err)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // substring of the error
	}{
		{"mix-low", func(c *Config) { c.MixID = -1 }, "mix id"},
		{"mix-high", func(c *Config) { c.MixID = 12 }, "mix id"},
		{"scale", func(c *Config) { c.Scale = 0 }, "scale"},
		{"llc-sets", func(c *Config) { c.LLCSets = 0 }, "LLC sets"},
		{"way-split", func(c *Config) { c.SRAMWays, c.NVMWays = 0, 0 }, "way split"},
		{"neg-ways", func(c *Config) { c.NVMWays = -1 }, "way split"},
		{"l1", func(c *Config) { c.L1Ways = 0 }, "L1 geometry"},
		{"l2", func(c *Config) { c.L2SizeKB = 0 }, "L2 geometry"},
		{"l2-too-small", func(c *Config) { c.L2SizeKB, c.L2Ways = 1, 32 }, "cannot hold"},
		{"policy", func(c *Config) { c.PolicyName = "NOPE" }, "unknown policy"},
		{"cpth-low", func(c *Config) { c.PolicyName, c.CPth = "CA", 0 }, "CPth"},
		{"cpth-high", func(c *Config) { c.PolicyName, c.CPth = "CA_RWR", 65 }, "CPth"},
		{"th", func(c *Config) { c.Th = -1 }, "Th"},
		{"endurance", func(c *Config) { c.EnduranceMean = 0 }, "endurance mean"},
		{"cv", func(c *Config) { c.EnduranceCV = -0.1 }, "endurance CV"},
		{"epoch", func(c *Config) { c.EpochCycles = 0 }, "epoch"},
		{"nvmlat", func(c *Config) { c.NVMLatencyFactor = -1 }, "latency factor"},
		{"prefetch", func(c *Config) { c.PrefetchDegree = -1 }, "prefetch"},
		{"banks", func(c *Config) { c.LLCBanks = -1 }, "bank"},
		{"shards-neg", func(c *Config) { c.Shards = -1 }, "shards"},
		// The set-sharded engine is gone: the error must point the
		// caller at the parallel path that remains.
		{"shards-engine", func(c *Config) { c.Shards = 2 }, "/v1/sweeps"},
		// Upper bounds: out-of-range geometry must fail at the submission
		// boundary (the simd allowlist hardening), not OOM inside Build.
		{"llc-sets-huge", func(c *Config) { c.LLCSets = MaxLLCSets + 1 }, "LLC sets"},
		{"ways-huge", func(c *Config) { c.SRAMWays, c.NVMWays = 100, 100 }, "exceeds"},
		{"l1-sets-huge", func(c *Config) { c.L1Sets = MaxL1Sets + 1 }, "L1 geometry"},
		{"l1-ways-huge", func(c *Config) { c.L1Ways = MaxL1Ways + 1 }, "L1 geometry"},
		{"l2-huge", func(c *Config) { c.L2SizeKB = MaxL2SizeKB + 1 }, "L2 geometry"},
		{"l2-ways-huge", func(c *Config) { c.L2Ways = MaxL2Ways + 1 }, "L2 geometry"},
		{"scale-huge", func(c *Config) { c.Scale = MaxScale + 1 }, "scale"},
		{"epoch-huge", func(c *Config) { c.EpochCycles = MaxEpochCycles + 1 }, "epoch"},
		{"endurance-huge", func(c *Config) { c.EnduranceMean = 2e18 }, "endurance mean"},
		{"cv-huge", func(c *Config) { c.EnduranceCV = 11 }, "endurance CV"},
		{"nvmlat-huge", func(c *Config) { c.NVMLatencyFactor = MaxNVMLatencyFactor + 1 }, "latency factor"},
		{"prefetch-huge", func(c *Config) { c.PrefetchDegree = MaxPrefetchDegree + 1 }, "prefetch"},
		{"banks-huge", func(c *Config) { c.LLCBanks = MaxLLCBanks + 1 }, "bank"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("accepted bad config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := cfg.Build(); err == nil {
				t.Fatal("Build accepted a config Validate rejects")
			}
		})
	}
}

func TestValidateReportsAllErrors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scale = 0
	cfg.EpochCycles = 0
	err := cfg.Validate()
	if err == nil {
		t.Fatal("no error")
	}
	for _, want := range []string{"scale", "epoch"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
}

func TestCheckEveryAttachesChecker(t *testing.T) {
	cfg := QuickConfig()
	cfg.CheckEvery = 1000
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	chk, ok := sys.AccessProbe().(*check.Checker)
	if !ok {
		t.Fatalf("probe is %T, want *check.Checker", sys.AccessProbe())
	}
	sys.Run(100_000)
	if chk.Runs() == 0 {
		t.Fatal("checker never ran")
	}
	if err := chk.Err(); err != nil {
		t.Fatal(err)
	}

	cfg.CheckEvery = 0
	sys, err = cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if sys.AccessProbe() != nil {
		t.Fatal("checker attached despite CheckEvery=0")
	}
}
