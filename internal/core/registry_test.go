package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/dueling"
	"repro/internal/hybrid"
	"repro/internal/metrics"
)

// TestEveryRegisteredPolicyBuilds pins the registry against the drift
// hazard the old switch had: every name Policies() advertises must
// actually resolve through BuildPolicy, and the built policy/threshold
// pair must be internally consistent.
func TestEveryRegisteredPolicyBuilds(t *testing.T) {
	for _, name := range Policies() {
		cfg := QuickConfig()
		cfg.PolicyName = name
		cfg.Th = 4
		pol, thr, sram, nvmW, err := BuildPolicy(cfg)
		if err != nil {
			t.Fatalf("%s: BuildPolicy: %v", name, err)
		}
		if pol == nil {
			t.Fatalf("%s: nil policy", name)
		}
		if sram+nvmW < 1 {
			t.Fatalf("%s: empty way split %d+%d", name, sram, nvmW)
		}
		if s, _ := specOf(name); s.UsesCPth && thr == nil {
			t.Fatalf("%s: threshold-using policy without a provider", name)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: valid config rejected: %v", name, err)
		}
	}
}

// TestEveryValidConfigRoundTrips drives each registered policy's config
// through MarshalCanonical -> UnmarshalStrict and requires the decoded
// config to be identical — the property the simd result cache keys on.
func TestEveryValidConfigRoundTrips(t *testing.T) {
	for _, name := range Policies() {
		cfg := QuickConfig()
		cfg.PolicyName = name
		cfg.Th = 4
		if name == "TOURNAMENT" {
			cfg.Tournament = &TournamentConfig{
				Candidates: []TournamentCandidate{
					{Policy: "CA_RWR", CPth: 40}, {Policy: "SRRIP"}, {Policy: "BRRIP"},
				},
				SamplerDivisor: 16,
			}
		}
		blob, err := cfg.MarshalCanonical()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var back Config
		if err := UnmarshalStrict(blob, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !reflect.DeepEqual(cfg, back) {
			t.Fatalf("%s: round-trip mismatch:\n got %+v\nwant %+v", name, back, cfg)
		}
		// The canonical form must be stable under a second pass (cache-key
		// determinism).
		blob2, err := back.MarshalCanonical()
		if err != nil || string(blob) != string(blob2) {
			t.Fatalf("%s: canonical form unstable (%v)", name, err)
		}
	}
}

// TestCanonicalFormBackwardCompatible pins that configs without a
// tournament bracket marshal without the field at all, so every
// pre-tournament cache key and golden document is unchanged.
func TestCanonicalFormBackwardCompatible(t *testing.T) {
	blob, err := DefaultConfig().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "tournament") {
		t.Fatalf("nil bracket leaked into canonical form: %s", blob)
	}
}

func TestTournamentEligibleSubset(t *testing.T) {
	want := []string{"CA", "CA_RWR", "SRRIP", "BRRIP", "PAR"}
	if got := TournamentEligible(); !reflect.DeepEqual(got, want) {
		t.Fatalf("eligible = %v, want %v", got, want)
	}
	all := Policies()
	for _, e := range TournamentEligible() {
		found := false
		for _, p := range all {
			if p == e {
				found = true
			}
		}
		if !found {
			t.Fatalf("eligible policy %q not registered", e)
		}
	}
}

func TestTournamentValidation(t *testing.T) {
	base := QuickConfig()
	base.PolicyName = "TOURNAMENT"
	cases := []struct {
		name string
		tc   *TournamentConfig
		want string
	}{
		{"one candidate", &TournamentConfig{Candidates: []TournamentCandidate{{Policy: "CA"}}}, "at least 2"},
		{"unknown candidate", &TournamentConfig{Candidates: []TournamentCandidate{{Policy: "CA"}, {Policy: "NOPE"}}}, "not eligible"},
		{"global candidate", &TournamentConfig{Candidates: []TournamentCandidate{{Policy: "CA"}, {Policy: "BH"}}}, "not eligible"},
		{"dueling candidate", &TournamentConfig{Candidates: []TournamentCandidate{{Policy: "CA"}, {Policy: "CP_SD"}}}, "not eligible"},
		{"too many for divisor", &TournamentConfig{
			Candidates:     []TournamentCandidate{{Policy: "CA"}, {Policy: "CA_RWR"}, {Policy: "SRRIP"}},
			SamplerDivisor: 2,
		}, "exceed sampler divisor"},
		{"divisor over sets", &TournamentConfig{
			Candidates:     []TournamentCandidate{{Policy: "CA"}, {Policy: "SRRIP"}},
			SamplerDivisor: 100_000,
		}, "LLC sets"},
		{"bad candidate cpth", &TournamentConfig{
			Candidates: []TournamentCandidate{{Policy: "CA", CPth: 65}, {Policy: "SRRIP"}},
		}, "outside [1,64]"},
	}
	for _, tc := range cases {
		cfg := base
		cfg.Tournament = tc.tc
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if _, err := cfg.Build(); err == nil {
			t.Errorf("%s: Build accepted an invalid bracket", tc.name)
		}
	}
	// nil bracket is valid (DefaultTournament) and must build.
	cfg := base
	cfg.Tournament = nil
	if err := cfg.Validate(); err != nil {
		t.Fatalf("nil bracket rejected: %v", err)
	}
}

func TestDRRIPIsCannedTournament(t *testing.T) {
	cfg := QuickConfig()
	cfg.PolicyName = "DRRIP"
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := Dueling(sys)
	if !ok {
		t.Fatal("DRRIP should expose a dueling controller")
	}
	list := d.CandidateList()
	if len(list) != 2 || list[0].Name != "SRRIP" || list[1].Name != "BRRIP" {
		t.Fatalf("DRRIP candidates %+v", list)
	}
	if d.Th != 0 || d.Tw != 0 {
		t.Fatalf("DRRIP must select on hits alone, got Th/Tw %v/%v", d.Th, d.Tw)
	}
	if _, ok := sys.LLC().Policy().(hybrid.SetPolicyResolver); !ok {
		t.Fatal("DRRIP policy must resolve per set")
	}
}

func TestTournamentBuildResolvesBracket(t *testing.T) {
	cfg := QuickConfig()
	cfg.PolicyName = "TOURNAMENT"
	cfg.Tournament = &TournamentConfig{
		Candidates: []TournamentCandidate{
			{Policy: "CA_RWR", CPth: 40}, {Policy: "SRRIP"}, {Policy: "PAR"},
		},
		SamplerDivisor: 16,
	}
	sys, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	d, ok := Dueling(sys)
	if !ok {
		t.Fatal("tournament should expose its controller")
	}
	list := d.CandidateList()
	if len(list) != 3 {
		t.Fatalf("%d candidates", len(list))
	}
	if list[0].Name != "CA_RWR@40" || list[0].CPth != 40 {
		t.Fatalf("per-candidate CPth label lost: %+v", list[0])
	}
	if list[1].Name != "SRRIP" || list[1].CPth != cfg.CPth {
		t.Fatalf("inherited CPth wrong: %+v", list[1])
	}
	if d.Divisor() != 16 {
		t.Fatalf("divisor %d", d.Divisor())
	}
	// Sampler sets resolve to their pinned candidate's policy.
	res := sys.LLC().Policy().(hybrid.SetPolicyResolver)
	if got := res.PolicyFor(1).Name(); got != "SRRIP" {
		t.Fatalf("set 1 policy %q, want SRRIP", got)
	}
	if got := res.PolicyFor(0).Name(); got != "CA_RWR" {
		t.Fatalf("set 0 policy %q, want CA_RWR", got)
	}
	// CPthFor follows the candidate.
	if d.CPthFor(0) != 40 || d.CPthFor(1) != cfg.CPth {
		t.Fatalf("per-set CPth (%d, %d)", d.CPthFor(0), d.CPthFor(1))
	}
	// The system runs and stays structurally sound.
	sys.Run(500_000)
	if err := sys.LLC().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTournamentSubsumesLegacyCPSD is the full-stack differential: a
// TOURNAMENT whose candidates are CA_RWR at the legacy CPth list must
// reproduce CP_SD exactly — every counter and gauge of the window, the
// epoch series and the NVM capacity. The two builds share nothing above
// the dueling substrate: CP_SD goes through the top-level-policy path
// (nil resolver), the tournament through per-set resolution.
func TestTournamentSubsumesLegacyCPSD(t *testing.T) {
	run := func(policy string, tc *TournamentConfig) (Summary, []metrics.Sample) {
		cfg := QuickConfig()
		cfg.PolicyName = policy
		cfg.Tournament = tc
		cfg.LLCSets = 96
		cfg.EpochCycles = 100_000
		cfg.EnduranceMean, cfg.EnduranceCV = 60_000, 0.3
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		return Measure(sys, 300_000, 1_500_000), sys.EpochRing().Samples()
	}
	legacy := &TournamentConfig{}
	for _, cpth := range dueling.DefaultCandidates {
		legacy.Candidates = append(legacy.Candidates, TournamentCandidate{Policy: "CA_RWR", CPth: cpth})
	}
	ref, refEpochs := run("CP_SD", nil)
	got, gotEpochs := run("TOURNAMENT", legacy)
	got.Policy = ref.Policy
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("tournament diverged from CP_SD:\n CP_SD %+v\n tourn %+v", ref, got)
	}
	if !reflect.DeepEqual(refEpochs, gotEpochs) {
		t.Fatal("tournament epoch series diverged from CP_SD")
	}
}
