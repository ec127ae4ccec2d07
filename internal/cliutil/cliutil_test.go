package cliutil

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestParseMixesAll(t *testing.T) {
	mixes, err := parseMixes("all")
	if err != nil || len(mixes) != 12 || mixes[0] != 0 || mixes[11] != 11 {
		t.Fatalf("mixes=%v err=%v", mixes, err)
	}
}

func TestParseMixesList(t *testing.T) {
	mixes, err := parseMixes("1, 4,10")
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
		if _, err := parseMixes(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// parseConfig binds names on a fresh flag set, parses args and fills a
// config over base.
func parseConfig(base core.Config, args []string, names ...string) (core.Config, *ConfigFlags, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	b := BindConfig(fs, names...)
	if err := fs.Parse(args); err != nil {
		return core.Config{}, nil, err
	}
	cfg, err := b.Config(base)
	return cfg, b, err
}

// TestBindConfigOverridesBase pins the one override rule: over a base
// that stands in for a -config file, a flag left unset keeps the base's
// value, a flag set on the command line wins, -coloring off clears the
// base's block, and -mix is refused outside 1-12 in 1-based terms.
func TestBindConfigOverridesBase(t *testing.T) {
	base := core.DefaultConfig()
	base.LLCSets, base.Scale, base.MixID = 64, 0.15, 5
	base.Coloring = &core.ColoringConfig{Scheme: core.ColoringWear, Pairs: 8}
	names := []string{"policy", "mix", "seed", "scale", "sets", "th", "prefetch", "coloring", "mixes"}

	cfg, b, err := parseConfig(base, nil, names...)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LLCSets != 64 || cfg.Scale != 0.15 || cfg.MixID != 5 || cfg.Coloring == nil || cfg.Coloring.Pairs != 8 {
		t.Errorf("unset flags moved the base: %+v (coloring %+v)", cfg, cfg.Coloring)
	}
	if len(b.Mixes) != 2 || b.Mixes[0] != 0 || b.Mixes[1] != 3 {
		t.Errorf("-mixes default parsed to %v, want [0 3]", b.Mixes)
	}

	cfg, b, err = parseConfig(base, []string{"-sets", "256", "-mix", "12", "-policy", "CP_SD_Th",
		"-th", "8", "-prefetch", "-seed", "7", "-coloring", "off", "-mixes", "2,12"}, names...)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LLCSets != 256 || cfg.MixID != 11 || cfg.PolicyName != "CP_SD_Th" || cfg.Th != 8 ||
		!cfg.EnablePrefetcher || cfg.Seed != 7 || cfg.Coloring != nil {
		t.Errorf("set flags lost to the base: %+v (coloring %+v)", cfg, cfg.Coloring)
	}
	if cfg.Scale != 0.15 {
		t.Errorf("unset -scale moved the base's 0.15 to %v", cfg.Scale)
	}
	if len(b.Mixes) != 2 || b.Mixes[0] != 1 || b.Mixes[1] != 11 {
		t.Errorf("-mixes 2,12 parsed to %v", b.Mixes)
	}

	for _, mix := range []string{"0", "13", "x"} {
		_, _, err := parseConfig(base, []string{"-mix", mix}, names...)
		if err == nil || !strings.Contains(err.Error(), "1-12") {
			t.Errorf("-mix %s: error %v, want the 1-based range 1-12 named", mix, err)
		}
	}
	for _, args := range [][]string{{"-scale", "NaN"}, {"-th", "-1"}, {"-mixes", "0"}} {
		if _, _, err := parseConfig(base, args, names...); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

// TestBindConfigColoring: a wear spec sets its knobs and reads back as
// its canonical spec, the retired xor and rotate specs fail as retired
// whatever options they carry, and a malformed spec is refused at parse
// time.
func TestBindConfigColoring(t *testing.T) {
	cfg, _, err := parseConfig(core.QuickConfig(), []string{"-coloring", "wear:pairs=8, interval=2"}, "coloring")
	if err != nil {
		t.Fatal(err)
	}
	if cc := cfg.Coloring; cc == nil || cc.IntervalEpochs != 2 || cc.Pairs != 8 {
		t.Fatalf("wear spec decoded to %+v", cc)
	}
	if spec := ColoringSpec(cfg.Coloring); spec != "wear:interval=2,pairs=8" {
		t.Errorf("ColoringSpec = %q", spec)
	}
	for _, spec := range []string{"xor", "xor:mask=21", "rotate:interval=4,step=37"} {
		if _, _, err := parseConfig(core.QuickConfig(), []string{"-coloring", spec}, "coloring"); err == nil || !strings.Contains(err.Error(), "retired") {
			t.Errorf("%s: error %v, want the scheme named as retired", spec, err)
		}
	}
	for _, spec := range []string{"wear:mask=1", "wear:pairs", "wear:pairs=x"} {
		_, _, err := parseConfig(core.QuickConfig(), []string{"-coloring", spec}, "coloring")
		if err == nil || !strings.Contains(err.Error(), "invalid value") {
			t.Errorf("%s: error %v, want it refused at parse time", spec, err)
		}
	}
}
