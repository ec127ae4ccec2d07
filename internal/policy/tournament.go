package policy

import (
	"fmt"

	"repro/internal/hybrid"
	"repro/internal/nvm"
)

// Selector maps a set to the index of the candidate policy governing it:
// sampler sets are pinned to one candidate each, follower sets track the
// current tournament winner. dueling.Controller satisfies it; the tiny
// interface keeps this package free of a dueling dependency.
type Selector interface {
	// CandidateFor returns the candidate index for the set. It must be
	// deterministic given the controller state so runs replay exactly.
	CandidateFor(set int) int
}

// Tournament is the N-way policy-tournament meta-policy: each set runs
// one of the candidate policies — its pinned candidate for sampler sets,
// the adopted epoch winner for the rest — and the LLC resolves every
// per-insert decision through PolicyFor. Whole-cache properties
// (compression, disabling granularity, non-global replacement) are
// checked equal across candidates at construction.
type Tournament struct {
	name  string
	sel   Selector
	cands []hybrid.Policy
	usesT bool
	gran  nvm.Granularity
	compr bool
}

// NewTournament builds the meta-policy over the given candidates. All
// candidates must be non-global, agree on Compressed and Granularity,
// and there must be at least two of them.
func NewTournament(name string, sel Selector, cands []hybrid.Policy) (*Tournament, error) {
	if name == "" {
		return nil, fmt.Errorf("policy: tournament needs a name")
	}
	if sel == nil {
		return nil, fmt.Errorf("policy: tournament %s needs a selector", name)
	}
	if len(cands) < 2 {
		return nil, fmt.Errorf("policy: tournament %s needs at least 2 candidates, got %d", name, len(cands))
	}
	t := &Tournament{
		name:  name,
		sel:   sel,
		cands: cands,
		gran:  cands[0].Granularity(),
		compr: cands[0].Compressed(),
	}
	for _, c := range cands {
		switch {
		case c == nil:
			return nil, fmt.Errorf("policy: tournament %s has a nil candidate", name)
		case c.Global():
			return nil, fmt.Errorf("policy: tournament %s: candidate %s is global (per-set resolution impossible)", name, c.Name())
		case c.Compressed() != t.compr:
			return nil, fmt.Errorf("policy: tournament %s: candidate %s disagrees on compression", name, c.Name())
		case c.Granularity() != t.gran:
			return nil, fmt.Errorf("policy: tournament %s: candidate %s disagrees on disabling granularity", name, c.Name())
		}
		if c.UsesThreshold() {
			t.usesT = true
		}
	}
	return t, nil
}

// PolicyFor implements hybrid.SetPolicyResolver.
func (t *Tournament) PolicyFor(set int) hybrid.Policy {
	return t.cands[t.sel.CandidateFor(set)]
}

// Candidates returns the candidate policies in tournament order.
func (t *Tournament) Candidates() []hybrid.Policy { return t.cands }

// Name implements hybrid.Policy.
func (t *Tournament) Name() string { return t.name }

// Compressed implements hybrid.Policy (agreed across candidates).
func (t *Tournament) Compressed() bool { return t.compr }

// Granularity implements hybrid.Policy (agreed across candidates).
func (t *Tournament) Granularity() nvm.Granularity { return t.gran }

// Global implements hybrid.Policy; tournaments are never global.
func (t *Tournament) Global() bool { return false }

// Target implements hybrid.Policy by delegating to the set's candidate.
// The LLC resolves through PolicyFor directly, so this path only serves
// callers holding the meta-policy as a plain hybrid.Policy.
func (t *Tournament) Target(info hybrid.InsertInfo) hybrid.Partition {
	return t.PolicyFor(info.Set).Target(info)
}

// MigrateReadReuse implements hybrid.Policy. The LLC consults the
// resolved per-set candidate for migration decisions; the meta-policy's
// own answer is never used there.
func (t *Tournament) MigrateReadReuse() bool { return false }

// LHybridMigrate implements hybrid.Policy (see MigrateReadReuse).
func (t *Tournament) LHybridMigrate() bool { return false }

// UsesThreshold implements hybrid.Policy: true when any candidate
// consults CPth, so threshold plumbing stays live for mixed brackets.
func (t *Tournament) UsesThreshold() bool { return t.usesT }
