package policy

import (
	"fmt"

	"repro/internal/hybrid"
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
// per-insert decision through PolicyFor. The whole-cache traits (one
// compression setting, non-global replacement) are checked across
// candidates at construction.
type Tournament struct {
	name  string
	sel   Selector
	cands []hybrid.Policy
	compr bool
}

// NewTournament builds the meta-policy over the given candidates. All
// candidates must be non-global, agree on Traits().Compressed, and there
// must be at least two of them.
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
	t := &Tournament{name: name, sel: sel, cands: cands}
	for i, c := range cands {
		if c == nil {
			return nil, fmt.Errorf("policy: tournament %s has a nil candidate", name)
		}
		tr := c.Traits()
		if i == 0 {
			t.compr = tr.Compressed
		}
		switch {
		case tr.Global:
			return nil, fmt.Errorf("policy: tournament %s: candidate %s is global (per-set resolution impossible)", name, c.Name())
		case tr.Compressed != t.compr:
			return nil, fmt.Errorf("policy: tournament %s: candidate %s disagrees on compression", name, c.Name())
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

// Traits implements hybrid.Policy: the candidates' agreed compression.
// Migration is resolved per set through PolicyFor.
func (t *Tournament) Traits() hybrid.Traits { return hybrid.Traits{Compressed: t.compr} }

// Target implements hybrid.Policy by delegating to the set's candidate.
// The LLC resolves through PolicyFor directly, so this path only serves
// callers holding the meta-policy as a plain hybrid.Policy.
func (t *Tournament) Target(info hybrid.InsertInfo) hybrid.Partition {
	return t.PolicyFor(info.Set).Target(info)
}
