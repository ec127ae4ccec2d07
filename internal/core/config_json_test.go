package core

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	want := DefaultConfig()
	want.PolicyName = "CP_SD_Th"
	want.Th, want.Tw = 8, 25
	want.CPth = 42
	want.Shards = 1
	want.AblationHCROnly = true

	blob, err := want.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	var got Config
	if err := UnmarshalStrict(blob, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestUnmarshalStrictRejectsUnknownFields(t *testing.T) {
	cfg := DefaultConfig()
	err := UnmarshalStrict([]byte(`{"policy": "CA", "no_such_knob": 1}`), &cfg)
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !strings.Contains(err.Error(), "no_such_knob") {
		t.Fatalf("error does not name the unknown field: %v", err)
	}
}

func TestUnmarshalStrictRejectsTrailingData(t *testing.T) {
	cfg := DefaultConfig()
	if err := UnmarshalStrict([]byte(`{"policy": "CA"} {"policy": "BH"}`), &cfg); err == nil {
		t.Fatal("trailing JSON document accepted")
	}
}

// TestUnmarshalStrictOverlay pins the partial-document semantics the
// hybridsim -config flag and the simd POST body rely on: absent fields
// keep the pre-seeded values.
func TestUnmarshalStrictOverlay(t *testing.T) {
	cfg := DefaultConfig()
	if err := UnmarshalStrict([]byte(`{"policy": "CA_RWR", "cpth": 40}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.PolicyName != "CA_RWR" || cfg.CPth != 40 {
		t.Fatalf("overlay did not apply: %+v", cfg)
	}
	def := DefaultConfig()
	if cfg.LLCSets != def.LLCSets || cfg.Seed != def.Seed || cfg.EpochCycles != def.EpochCycles {
		t.Fatalf("overlay clobbered defaults: %+v", cfg)
	}
}

// TestConfigJSONTagsComplete guards the wire schema: every exported
// Config field must carry a JSON tag, so nothing silently falls back to
// the Go field name (which UnmarshalStrict would then reject from
// documents written against the documented snake_case schema).
func TestConfigJSONTagsComplete(t *testing.T) {
	blob, err := json.Marshal(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for key := range m {
		for _, r := range key {
			if r >= 'A' && r <= 'Z' {
				t.Errorf("field %q marshals under its Go name (missing json tag)", key)
			}
		}
	}
}
