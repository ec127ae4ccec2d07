package core

import (
	"reflect"
	"strings"
	"testing"
)

// TestValidateColoringRejections is the validation table for coloring
// documents: scheme-specific range checks plus the mixed-document rule
// (knobs of an unselected scheme must stay zero, so a typo'd field is an
// error rather than silently ignored).
func TestValidateColoringRejections(t *testing.T) {
	cases := []struct {
		name string
		sets int // 0 = keep QuickConfig's
		cc   ColoringConfig
		want string
	}{
		{"unknown scheme", 0, ColoringConfig{Scheme: "bogus"}, "unknown scheme"},
		{"empty scheme", 0, ColoringConfig{}, "unknown scheme"},
		{"xor non-pow2", 96, ColoringConfig{Scheme: ColoringXOR}, "power-of-two"},
		{"xor mask negative", 0, ColoringConfig{Scheme: ColoringXOR, Mask: -1}, "mask"},
		{"xor mask too big", 0, ColoringConfig{Scheme: ColoringXOR, Mask: 256}, "mask"},
		{"xor with interval", 0, ColoringConfig{Scheme: ColoringXOR, IntervalEpochs: 2}, "does not apply"},
		{"xor with step", 0, ColoringConfig{Scheme: ColoringXOR, Step: 3}, "does not apply"},
		{"rotate step too big", 0, ColoringConfig{Scheme: ColoringRot, Step: 256}, "step"},
		{"rotate step negative", 0, ColoringConfig{Scheme: ColoringRot, Step: -1}, "step"},
		{"rotate with mask", 0, ColoringConfig{Scheme: ColoringRot, Mask: 1}, "does not apply"},
		{"rotate with pairs", 0, ColoringConfig{Scheme: ColoringRot, Pairs: 2}, "does not apply"},
		{"wear pairs too big", 0, ColoringConfig{Scheme: ColoringWear, Pairs: 129}, "pairs"},
		{"wear pairs negative", 0, ColoringConfig{Scheme: ColoringWear, Pairs: -1}, "pairs"},
		{"wear with mask", 0, ColoringConfig{Scheme: ColoringWear, Mask: 1}, "does not apply"},
		{"interval negative", 0, ColoringConfig{Scheme: ColoringWear, IntervalEpochs: -1}, "interval_epochs"},
		{"interval huge", 0, ColoringConfig{Scheme: ColoringWear, IntervalEpochs: MaxColoringInterval + 1}, "interval_epochs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := QuickConfig()
			if tc.sets != 0 {
				cfg.LLCSets = tc.sets
			}
			cc := tc.cc
			cfg.Coloring = &cc
			err := cfg.Validate()
			if err == nil {
				t.Fatal("accepted bad coloring")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if _, err := cfg.Build(); err == nil {
				t.Fatal("Build accepted a coloring Validate rejects")
			}
		})
	}
}

// TestBuildColoringSchemes: every valid document builds the matching
// scheme, zero interval/step/pairs default to 1, and a nil document
// builds no mapper at all.
func TestBuildColoringSchemes(t *testing.T) {
	cfg := QuickConfig()
	if m, err := cfg.buildColoring(); err != nil || m != nil {
		t.Fatalf("nil coloring built %v (err %v)", m, err)
	}
	for _, cc := range []ColoringConfig{
		{Scheme: ColoringXOR},
		{Scheme: ColoringXOR, Mask: 21},
		{Scheme: ColoringRot},
		{Scheme: ColoringRot, IntervalEpochs: 4, Step: 37},
		{Scheme: ColoringWear},
		{Scheme: ColoringWear, IntervalEpochs: 2, Pairs: 32},
	} {
		cfg := QuickConfig()
		doc := cc
		cfg.Coloring = &doc
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%+v: %v", cc, err)
		}
		m, err := cfg.buildColoring()
		if err != nil || m == nil {
			t.Fatalf("%+v: mapper %v, err %v", cc, m, err)
		}
		assertBijection(t, m.Map, cfg.LLCSets)
	}
}

// TestIdentityColoringMatchesClassic pins the zero-cost end of the
// design: xor with mask 0 is the identity mapping, and a run with it
// configured must be the run with coloring off — same summary, every
// counter and gauge of the window, and the same per-frame wear.
func TestIdentityColoringMatchesClassic(t *testing.T) {
	run := func(cc *ColoringConfig) (Summary, []float64) {
		cfg := QuickConfig()
		cfg.Coloring = cc
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		sum := Measure(sys, 300_000, 1_500_000)
		var wear []float64
		for _, f := range sys.LLC().Array().Frames() {
			wear = append(wear, f.Wear())
		}
		return sum, wear
	}
	plain, plainWear := run(nil)
	id, idWear := run(&ColoringConfig{Scheme: ColoringXOR})
	if !reflect.DeepEqual(plain, id) {
		t.Fatalf("identity coloring changed the run:\n off %+v\n id  %+v", plain, id)
	}
	if !reflect.DeepEqual(plainWear, idWear) {
		t.Fatal("identity coloring changed per-frame wear")
	}
}

func assertBijection(t *testing.T, mapFn func(int) int, sets int) {
	t.Helper()
	seen := make([]bool, sets)
	for l := 0; l < sets; l++ {
		p := mapFn(l)
		if p < 0 || p >= sets {
			t.Fatalf("set %d maps outside [0,%d): %d", l, sets, p)
		}
		if seen[p] {
			t.Fatalf("physical row %d aliased", p)
		}
		seen[p] = true
	}
}

// TestColoringStrictDecode: the strict JSON boundary rejects unknown
// knobs inside the coloring document, and a valid document round-trips
// into the selected scheme.
func TestColoringStrictDecode(t *testing.T) {
	cfg := QuickConfig()
	if err := UnmarshalStrict([]byte(`{"coloring":{"scheme":"wear","interval_epochs":2,"pairs":8}}`), &cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Coloring == nil || cfg.Coloring.Scheme != ColoringWear || cfg.Coloring.Pairs != 8 {
		t.Fatalf("decoded coloring %+v", cfg.Coloring)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := QuickConfig()
	if err := UnmarshalStrict([]byte(`{"coloring":{"scheme":"wear","pears":8}}`), &bad); err == nil {
		t.Fatal("unknown coloring field accepted")
	}
}

// FuzzColoringConfigDecode fuzzes the submission boundary: any byte
// sequence either fails strict decode, fails Validate, or yields a
// buildable coloring whose mapping is a bijection. No input may panic,
// and Validate-accepted documents must never fail to build — the simd
// daemon relies on that to reject bad coloring before queueing a job.
func FuzzColoringConfigDecode(f *testing.F) {
	for _, seed := range []string{
		`{"coloring":{"scheme":"wear","interval_epochs":2,"pairs":32}}`,
		`{"coloring":{"scheme":"xor","mask":21}}`,
		`{"coloring":{"scheme":"rotate","interval_epochs":4,"step":37}}`,
		`{"coloring":{"scheme":"xor","mask":-1}}`,
		`{"coloring":{"scheme":"rotate","pairs":3}}`,
		`{"coloring":{"scheme":"bogus"}}`,
		`{"llc_sets":96,"coloring":{"scheme":"xor"}}`,
		`{"coloring":{"scheme":"wear","interval_epochs":9999999}}`,
		`{"coloring":{"scheme":"wear","typo":1}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := QuickConfig()
		if err := UnmarshalStrict(data, &cfg); err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			return // the boundary rejected it; nothing may be built
		}
		m, err := cfg.buildColoring()
		if err != nil {
			t.Fatalf("Validate accepted but buildColoring failed: %v\n%s", err, data)
		}
		if m != nil {
			assertBijection(t, m.Map, cfg.LLCSets)
		}
	})
}
