package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestPoliciesArePapers pins the registry to the paper's evaluated
// policies (Table III plus the intermediate CA and CA_RWR designs of
// §IV), in presentation order.
func TestPoliciesArePapers(t *testing.T) {
	want := []string{"SRAM16", "SRAM4", "BH", "BH_CP", "CA", "CA_RWR", "CP_SD", "CP_SD_Th", "LHybrid", "TAP"}
	if got := Policies(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Policies() = %v, want %v", got, want)
	}
}

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

// TestCanonicalFormBackwardCompatible pins that the canonical form has
// no "tournament" key: the retired TOURNAMENT policy's bracket field
// never entered a default config's cache key, and must not start to.
func TestCanonicalFormBackwardCompatible(t *testing.T) {
	blob, err := DefaultConfig().MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(blob), "tournament") {
		t.Fatalf("nil bracket leaked into canonical form: %s", blob)
	}
}
