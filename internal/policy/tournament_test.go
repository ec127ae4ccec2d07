package policy

import (
	"strings"
	"testing"

	"repro/internal/hybrid"
)

// fixedSelector pins every set to set % n — a deterministic stand-in for
// the dueling controller.
type fixedSelector int

func (n fixedSelector) CandidateFor(set int) int { return set % int(n) }

func TestTournamentResolvesPerSet(t *testing.T) {
	cands := []hybrid.Policy{CARWR{PolicyName: "CP_SD"}, NewSRRIP(), NewBRRIP(8)}
	tr, err := NewTournament("TOURNAMENT", fixedSelector(3), cands)
	if err != nil {
		t.Fatal(err)
	}
	for set := 0; set < 6; set++ {
		want := cands[set%3]
		if got := tr.PolicyFor(set); got != want {
			t.Errorf("set %d resolved %s, want %s", set, got.Name(), want.Name())
		}
	}
	if tr.Name() != "TOURNAMENT" {
		t.Errorf("name = %q", tr.Name())
	}
	if got := tr.Traits(); got != (hybrid.Traits{Compressed: true}) {
		t.Errorf("tournament traits = %+v, want the candidates' compression only", got)
	}
	if len(tr.Candidates()) != 3 {
		t.Error("candidate list lost")
	}
	// Target must delegate through the resolved candidate.
	i := info(hybrid.ReuseNone, 40, 58, false, false, 0)
	i.Set = 1 // SRRIP
	if tr.Target(i) != NewSRRIP().Target(i) {
		t.Error("Target does not delegate to the set's candidate")
	}
}

func TestTournamentRejectsBadBrackets(t *testing.T) {
	cases := []struct {
		name  string
		cands []hybrid.Policy
		want  string
	}{
		{"one", []hybrid.Policy{NewSRRIP()}, "at least 2"},
		{"nilcand", []hybrid.Policy{NewSRRIP(), nil}, "nil candidate"},
		{"global", []hybrid.Policy{NewSRRIP(), BHCP{}}, "global"},
		{"compr", []hybrid.Policy{NewSRRIP(), TAP{}}, "compression"},
	}
	for _, c := range cases {
		_, err := NewTournament("T", fixedSelector(len(c.cands)), c.cands)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	if _, err := NewTournament("", fixedSelector(2), []hybrid.Policy{NewSRRIP(), NewBRRIP(4)}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewTournament("T", nil, []hybrid.Policy{NewSRRIP(), NewBRRIP(4)}); err == nil {
		t.Error("nil selector accepted")
	}
}

func TestTournamentImplementsResolver(t *testing.T) {
	tr, err := NewTournament("T", fixedSelector(2), []hybrid.Policy{CARWR{}, NewSRRIP()})
	if err != nil {
		t.Fatal(err)
	}
	var p hybrid.Policy = tr
	if _, ok := p.(hybrid.SetPolicyResolver); !ok {
		t.Fatal("tournament must implement SetPolicyResolver")
	}
	if _, ok := p.(hybrid.RRIPInserter); ok {
		t.Fatal("tournament must not implement RRIPInserter at the top level (per-set resolution handles it)")
	}
}
