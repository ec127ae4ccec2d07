package cliutil

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseMixesAll(t *testing.T) {
	mixes, err := ParseMixes("all")
	if err != nil || len(mixes) != 12 || mixes[0] != 0 || mixes[11] != 11 {
		t.Fatalf("mixes=%v err=%v", mixes, err)
	}
}

func TestParseMixesList(t *testing.T) {
	mixes, err := ParseMixes("1, 4,10")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 9}
	for i, v := range want {
		if mixes[i] != v {
			t.Fatalf("mixes=%v, want %v", mixes, want)
		}
	}
}

func TestParseMixesErrors(t *testing.T) {
	for _, bad := range []string{"0", "13", "x", "", "1,,2"} {
		if _, err := ParseMixes(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestApplyColoring: "off" clears the coloring, a wear spec sets its
// knobs, and the retired xor and rotate specs fail as retired whatever
// options they carry.
func TestApplyColoring(t *testing.T) {
	cfg := core.QuickConfig()
	if err := ApplyColoring(&cfg, "wear:interval=2,pairs=8"); err != nil {
		t.Fatal(err)
	}
	if cc := cfg.Coloring; cc == nil || cc.IntervalEpochs != 2 || cc.Pairs != 8 {
		t.Fatalf("wear spec decoded to %+v", cc)
	}
	if err := ApplyColoring(&cfg, "off"); err != nil || cfg.Coloring != nil {
		t.Fatalf("off left %+v (err %v)", cfg.Coloring, err)
	}
	for _, spec := range []string{"xor", "xor:mask=21", "rotate:interval=4,step=37"} {
		cfg := core.QuickConfig()
		if err := ApplyColoring(&cfg, spec); err == nil || !strings.Contains(err.Error(), "retired") {
			t.Errorf("%s: error %v, want the scheme named as retired", spec, err)
		}
	}
	for _, spec := range []string{"wear:mask=1", "wear:pairs", "wear:pairs=x"} {
		cfg := core.QuickConfig()
		if err := ApplyColoring(&cfg, spec); err == nil {
			t.Errorf("%s accepted", spec)
		}
	}
}
