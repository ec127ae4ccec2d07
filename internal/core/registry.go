package core

import (
	"fmt"

	"repro/internal/dueling"
	"repro/internal/hybrid"
	"repro/internal/policy"
)

// PolicySpec is one row of the policy registry: the single source of
// truth a policy name resolves through. Policies(), config validation
// and buildPolicy all derive from the table, so a policy added here is
// immediately selectable from every command, JSON config and simd job —
// and nothing else needs editing.
type PolicySpec struct {
	// Name is the selectable identifier (Config.PolicyName).
	Name string
	// Build resolves the config into the policy value, its threshold
	// provider (nil when not applicable) and the SRAM/NVM way split.
	Build func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error)
	// UsesCPth marks policies whose steering consults the compression
	// threshold, so validation bounds Config.CPth for them.
	UsesCPth bool
}

// registry lists the selectable policies in presentation order: the
// paper's Table III set plus the intermediate CA and CA_RWR designs.
var registry = []PolicySpec{
	{Name: "SRAM16", Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.SRAMOnly{}, nil, c.SRAMWays + c.NVMWays, 0, nil
	}},
	{Name: "SRAM4", Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.SRAMOnly{}, nil, c.SRAMWays, 0, nil
	}},
	{Name: "BH", Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.BH{}, nil, c.SRAMWays, c.NVMWays, nil
	}},
	{Name: "BH_CP", Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.BHCP{}, nil, c.SRAMWays, c.NVMWays, nil
	}},
	{Name: "CA", UsesCPth: true, Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.CA{}, hybrid.FixedThreshold(c.CPth), c.SRAMWays, c.NVMWays, nil
	}},
	{Name: "CA_RWR", UsesCPth: true, Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.CARWR{NoMigration: c.AblationNoMigration},
			hybrid.FixedThreshold(c.CPth), c.SRAMWays, c.NVMWays, nil
	}},
	{Name: "CP_SD", Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.CARWR{PolicyName: "CP_SD", NoMigration: c.AblationNoMigration},
			dueling.New(c.LLCSets, 0, 0), c.SRAMWays, c.NVMWays, nil
	}},
	{Name: "CP_SD_Th", Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		name := fmt.Sprintf("CP_SD_Th%g", c.Th)
		return policy.CARWR{PolicyName: name, NoMigration: c.AblationNoMigration},
			dueling.New(c.LLCSets, c.Th, c.Tw), c.SRAMWays, c.NVMWays, nil
	}},
	{Name: "LHybrid", Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.LHybrid{}, nil, c.SRAMWays, c.NVMWays, nil
	}},
	{Name: "TAP", Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
		return policy.TAP{HThresh: 1}, nil, c.SRAMWays, c.NVMWays, nil
	}},
}

// specOf returns the registry row for a name.
func specOf(name string) (PolicySpec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return PolicySpec{}, false
}

// Policies lists the selectable policy names in presentation order,
// derived from the registry.
func Policies() []string {
	out := make([]string, len(registry))
	for i, s := range registry {
		out[i] = s.Name
	}
	return out
}

// buildPolicy resolves the policy name through the registry into a policy
// value, a threshold provider (nil when not applicable) and the LLC way
// split.
func (c Config) buildPolicy() (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
	s, ok := specOf(c.PolicyName)
	if !ok {
		return nil, nil, 0, 0, fmt.Errorf("core: unknown policy %q (valid: %v)", c.PolicyName, Policies())
	}
	return s.Build(c)
}
