package core

import (
	"fmt"

	"repro/internal/dueling"
	"repro/internal/hybrid"
	"repro/internal/policy"
)

// PolicySpec is one row of the policy registry: the single source of
// truth a policy name resolves through. Policies(), config validation,
// buildPolicy and the tournament bracket machinery all derive from the
// table, so a policy added here is immediately selectable from every
// command, JSON config and simd job — and nothing else needs editing.
type PolicySpec struct {
	// Name is the selectable identifier (Config.PolicyName).
	Name string
	// Build resolves the config into the policy value, its threshold
	// provider (nil when not applicable) and the SRAM/NVM way split.
	Build func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error)
	// Candidate, when non-nil, marks the policy tournament-eligible and
	// builds the bare per-set policy a bracket candidate delegates to.
	// Eligible policies must be non-global and agree on compression
	// (policy.NewTournament enforces it).
	Candidate func(c Config) hybrid.Policy
	// UsesCPth marks policies whose steering consults the compression
	// threshold, so validation bounds Config.CPth for them.
	UsesCPth bool
}

// registry lists the selectable policies in presentation order: the
// paper's Table III set first, then the RRIP-family extensions and the
// tournament meta-policies. Populated in init: the tournament builders
// consult the table themselves (candidate lookup), which a composite
// literal would turn into an initialization cycle.
var registry []PolicySpec

func init() {
	registry = []PolicySpec{
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
		{Name: "CA", UsesCPth: true,
			Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
				return policy.CA{}, hybrid.FixedThreshold(c.CPth), c.SRAMWays, c.NVMWays, nil
			},
			Candidate: func(c Config) hybrid.Policy { return policy.CA{} }},
		{Name: "CA_RWR", UsesCPth: true,
			Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
				return policy.CARWR{NoMigration: c.AblationNoMigration},
					hybrid.FixedThreshold(c.CPth), c.SRAMWays, c.NVMWays, nil
			},
			Candidate: func(c Config) hybrid.Policy {
				return policy.CARWR{NoMigration: c.AblationNoMigration}
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
		{Name: "SRRIP", UsesCPth: true,
			Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
				return policy.NewSRRIP(), hybrid.FixedThreshold(c.CPth), c.SRAMWays, c.NVMWays, nil
			},
			Candidate: func(c Config) hybrid.Policy { return policy.NewSRRIP() }},
		{Name: "BRRIP", UsesCPth: true,
			Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
				return policy.NewBRRIP(c.LLCSets), hybrid.FixedThreshold(c.CPth), c.SRAMWays, c.NVMWays, nil
			},
			Candidate: func(c Config) hybrid.Policy { return policy.NewBRRIP(c.LLCSets) }},
		{Name: "PAR", UsesCPth: true,
			Build: func(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
				return policy.NewPAR(c.LLCSets), hybrid.FixedThreshold(c.CPth), c.SRAMWays, c.NVMWays, nil
			},
			Candidate: func(c Config) hybrid.Policy { return policy.NewPAR(c.LLCSets) }},
		{Name: "DRRIP", UsesCPth: true, Build: buildDRRIP},
		{Name: "TOURNAMENT", UsesCPth: true, Build: buildNamedTournament},
	}
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

// TournamentEligible lists the policies usable as tournament bracket
// candidates, in registry order.
func TournamentEligible() []string {
	var out []string
	for _, s := range registry {
		if s.Candidate != nil {
			out = append(out, s.Name)
		}
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

// TournamentCandidate selects one bracket competitor: a tournament-
// eligible policy name plus an optional per-candidate compression
// threshold (0 inherits Config.CPth).
type TournamentCandidate struct {
	Policy string `json:"policy"`
	CPth   int    `json:"cpth,omitempty"`
}

// TournamentConfig declares a user-defined bracket for the TOURNAMENT
// policy: the candidate list and the sampler-set share. It rides the
// Config wire format, so simd jobs and JSON configs can submit brackets
// directly (strict-decoded, cache-keyed like every other field).
type TournamentConfig struct {
	// Candidates lists the competitors in bracket order (2 or more; at
	// most SamplerDivisor).
	Candidates []TournamentCandidate `json:"candidates"`
	// SamplerDivisor splits the sets into this many equal classes; each
	// candidate samples on one class (a 1/SamplerDivisor set fraction),
	// the rest follow the epoch winner. 0 selects the paper's 32.
	SamplerDivisor int `json:"sampler_divisor,omitempty"`
}

// DefaultTournament is the bracket TOURNAMENT runs when the config does
// not declare one: the paper's best classic policy against the full
// RRIP-family substrate, all at the config's CPth.
func DefaultTournament() *TournamentConfig {
	return &TournamentConfig{Candidates: []TournamentCandidate{
		{Policy: "CA_RWR"}, {Policy: "SRRIP"}, {Policy: "BRRIP"}, {Policy: "PAR"},
	}}
}

// candidateLabel names a bracket entry in reports: the policy name alone
// when it inherits the config threshold, name@CPth otherwise.
func candidateLabel(tc TournamentCandidate) string {
	if tc.CPth == 0 {
		return tc.Policy
	}
	return fmt.Sprintf("%s@%d", tc.Policy, tc.CPth)
}

// buildTournament assembles an N-way policy tournament from an explicit
// bracket: one dueling controller arbitrating the candidates by their
// sampler votes, and a policy.Tournament resolving every set to its
// candidate's insertion policy. The controller doubles as the threshold
// provider, so each candidate's sets run that candidate's CPth.
func (c Config) buildTournament(name string, tc *TournamentConfig) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
	if err := c.validateTournament(tc); err != nil {
		return nil, nil, 0, 0, err
	}
	dcands := make([]dueling.Candidate, len(tc.Candidates))
	pols := make([]hybrid.Policy, len(tc.Candidates))
	for i, cand := range tc.Candidates {
		spec, _ := specOf(cand.Policy)
		cpth := cand.CPth
		if cpth == 0 {
			cpth = c.CPth
		}
		dcands[i] = dueling.Candidate{Name: candidateLabel(cand), CPth: cpth, Payload: i}
		pols[i] = spec.Candidate(c)
	}
	ctrl := dueling.NewTournament(c.LLCSets, dcands, tc.SamplerDivisor, c.Th, c.Tw)
	t, err := policy.NewTournament(name, ctrl, pols)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return t, ctrl, c.SRAMWays, c.NVMWays, nil
}

// validateTournament checks a bracket without building it; Validate and
// buildTournament share it so bad brackets fail with the full error list
// before any construction (and never reach the dueling constructor's
// panics).
func (c Config) validateTournament(tc *TournamentConfig) error {
	if tc == nil {
		return fmt.Errorf("core: TOURNAMENT needs a tournament bracket")
	}
	div := tc.SamplerDivisor
	if div == 0 {
		div = dueling.GroupDivisor
	}
	if len(tc.Candidates) < 2 {
		return fmt.Errorf("core: tournament bracket has %d candidates, want at least 2", len(tc.Candidates))
	}
	if len(tc.Candidates) > div {
		return fmt.Errorf("core: %d tournament candidates exceed sampler divisor %d", len(tc.Candidates), div)
	}
	if div > c.LLCSets {
		return fmt.Errorf("core: sampler divisor %d exceeds %d LLC sets", div, c.LLCSets)
	}
	for i, cand := range tc.Candidates {
		spec, ok := specOf(cand.Policy)
		if !ok || spec.Candidate == nil {
			return fmt.Errorf("core: tournament candidate %d: policy %q not eligible (valid: %v)",
				i, cand.Policy, TournamentEligible())
		}
		if cand.CPth < 0 || cand.CPth > 64 {
			return fmt.Errorf("core: tournament candidate %d: CPth %d outside [1,64]", i, cand.CPth)
		}
	}
	return nil
}

// buildNamedTournament builds the TOURNAMENT policy from Config.Tournament
// (DefaultTournament when absent).
func buildNamedTournament(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
	tc := c.Tournament
	if tc == nil {
		tc = DefaultTournament()
	}
	return c.buildTournament("TOURNAMENT", tc)
}

// buildDRRIP builds dynamic RRIP as a canned two-way tournament: SRRIP
// against BRRIP, duelling on the paper's sampler machinery with plain
// max-hits selection — the classic DRRIP set-dueling monitor expressed
// in the N-way substrate.
func buildDRRIP(c Config) (hybrid.Policy, hybrid.ThresholdProvider, int, int, error) {
	drrip := c
	drrip.Th, drrip.Tw = 0, 0 // DRRIP selects on hits alone
	return drrip.buildTournament("DRRIP", &TournamentConfig{Candidates: []TournamentCandidate{
		{Policy: "SRRIP"}, {Policy: "BRRIP"},
	}})
}
