package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestValidateColoringRejections is the validation table for coloring
// documents at the strict JSON boundary: the wear scheme's range checks,
// knobs that do not exist, and every document of the retired xor and
// rotate schemes, which must name the scheme as retired whatever knobs
// they carry.
func TestValidateColoringRejections(t *testing.T) {
	cases := []struct {
		name string
		sets int // 0 = keep QuickConfig's
		doc  string
		want string
	}{
		{"unknown scheme", 0, `{"scheme":"bogus"}`, "unknown scheme"},
		{"empty scheme", 0, `{}`, "unknown scheme"},
		{"xor non-pow2", 96, `{"scheme":"xor"}`, "retired"},
		{"xor mask negative", 0, `{"scheme":"xor","mask":-1}`, "retired"},
		{"xor mask too big", 0, `{"scheme":"xor","mask":256}`, "retired"},
		{"xor with interval", 0, `{"scheme":"xor","interval_epochs":2}`, "retired"},
		{"xor with step", 0, `{"scheme":"xor","step":3}`, "retired"},
		{"rotate step too big", 0, `{"scheme":"rotate","step":256}`, "retired"},
		{"rotate step negative", 0, `{"scheme":"rotate","step":-1}`, "retired"},
		{"rotate with mask", 0, `{"scheme":"rotate","mask":1}`, "retired"},
		{"rotate with pairs", 0, `{"scheme":"rotate","pairs":2}`, "retired"},
		{"wear pairs too big", 0, `{"scheme":"wear","pairs":129}`, "pairs"},
		{"wear pairs negative", 0, `{"scheme":"wear","pairs":-1}`, "pairs"},
		{"wear with mask", 0, `{"scheme":"wear","mask":1}`, "unknown field"},
		{"interval negative", 0, `{"scheme":"wear","interval_epochs":-1}`, "interval"},
		{"interval huge", 0, fmt.Sprintf(`{"scheme":"wear","interval_epochs":%d}`, MaxColoringInterval+1), "interval"},
		{"wear one set", 1, `{"scheme":"wear"}`, "sets"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := QuickConfig()
			if tc.sets != 0 {
				cfg.LLCSets = tc.sets
			}
			err := UnmarshalStrict([]byte(`{"coloring":`+tc.doc+`}`), &cfg)
			if err == nil {
				if err = cfg.Validate(); err == nil {
					t.Fatal("accepted bad coloring")
				}
				if _, berr := cfg.Build(); berr == nil {
					t.Fatal("Build accepted a coloring Validate rejects")
				}
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if tc.want == "retired" && !strings.Contains(err.Error(), `use "wear"`) {
				t.Fatalf("error %q does not point at the wear scheme", err)
			}
		})
	}
}

// TestBuildColoringSchemes: every valid document builds the wear
// scheme, zero interval/pairs default to 1, and a nil document builds no
// mapper at all.
func TestBuildColoringSchemes(t *testing.T) {
	cfg := QuickConfig()
	if m, err := cfg.buildColoring(); err != nil || m != nil {
		t.Fatalf("nil coloring built %v (err %v)", m, err)
	}
	for _, cc := range []ColoringConfig{
		{Scheme: ColoringWear},
		{Scheme: ColoringWear, IntervalEpochs: 2, Pairs: 32},
		{Scheme: ColoringWear, IntervalEpochs: MaxColoringInterval, Pairs: cfg.LLCSets / 2},
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
// design: a wear scheme whose interval (MaxColoringInterval epochs) never
// comes due keeps the identity mapping, and a run with it configured
// must be the run with coloring off — same summary, every counter and
// gauge of the window, and the same per-frame wear.
func TestIdentityColoringMatchesClassic(t *testing.T) {
	run := func(cc *ColoringConfig) (Summary, []float64) {
		cfg := QuickConfig()
		cfg.Coloring = cc
		sys, err := cfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		sum := Measure(sys, 300_000, 1_500_000)
		if sys.Epochs == 0 {
			t.Fatal("the run closed no epoch; the mapper was never advanced")
		}
		var wear []float64
		for _, f := range sys.LLC().Array().Frames() {
			wear = append(wear, f.Wear())
		}
		return sum, wear
	}
	plain, plainWear := run(nil)
	id, idWear := run(&ColoringConfig{Scheme: ColoringWear, IntervalEpochs: MaxColoringInterval})
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
// buildable wear coloring whose mapping is a bijection; the retired xor
// and rotate seeds must be rejected. No input may panic,
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
		if cfg.Coloring != nil && cfg.Coloring.Scheme != ColoringWear {
			t.Fatalf("Validate accepted scheme %q\n%s", cfg.Coloring.Scheme, data)
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
