package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/forecast"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/classic_digests.json")

const classicDigestsFile = "testdata/classic_digests.json"

// classicDigest pins one classic-path run: the request's content address
// and the SHA-256 of the artifact RunRequestArtifact encodes for it.
type classicDigest struct {
	Name     string `json:"name"`
	CacheKey string `json:"cache_key"`
	Artifact string `json:"artifact_sha256"`
}

type digestCase struct {
	name string
	req  JobRequest
	// forecast runs the aging forecast instead of one measured window:
	// WarmupCycles and MeasureCycles become each phase's windows.
	forecast bool
}

// classicDigestRequests is the oracle's matrix: every registry policy on
// QuickConfig mixes 1 and 4. Mix 1 runs unaged; mix 4 is pre-aged to 80%
// capacity so the aging path is pinned too. The 500K-cycle epochs close
// four set-dueling epochs inside the measured window. One CP_SD row adds
// the wear coloring, whose remap advances at epoch boundaries.
// Two more CP_SD rows set ablation_no_migration (CA_RWR's migrate
// switch) and nvm_rrip (fit-RRIP victims in the NVM part). The
// last row runs CP_SD's aging forecast, which invalidates unfit entries
// between measured phases; the measured-window rows never see that.
func classicDigestRequests() []digestCase {
	var out []digestCase
	for _, mix := range []int{1, 4} {
		for _, pol := range core.Policies() {
			req := DefaultJobRequest()
			req.Config = core.QuickConfig()
			req.Config.MixID = mix
			req.Config.PolicyName = pol
			req.WarmupCycles = 500_000
			req.MeasureCycles = 2_000_000
			if mix == 4 {
				req.Capacity = 0.8
			}
			out = append(out, digestCase{name: fmt.Sprintf("mix%d/%s", mix, pol), req: req})
		}
	}
	{
		req := DefaultJobRequest()
		req.Config = core.QuickConfig()
		req.Config.MixID = 1
		req.Config.Coloring = &core.ColoringConfig{Scheme: core.ColoringWear, Pairs: 4}
		req.WarmupCycles = 500_000
		req.MeasureCycles = 2_000_000
		out = append(out, digestCase{name: fmt.Sprintf("mix1/%s/coloring=wear", req.Config.PolicyName), req: req})
	}
	for _, knob := range []string{"ablation_no_migration", "nvm_rrip"} {
		req := DefaultJobRequest()
		req.Config = core.QuickConfig()
		req.Config.MixID = 1
		req.Config.PolicyName = "CP_SD"
		req.Config.AblationNoMigration = knob == "ablation_no_migration"
		req.Config.NVMRRIP = knob == "nvm_rrip"
		req.WarmupCycles = 500_000
		req.MeasureCycles = 2_000_000
		out = append(out, digestCase{name: "mix1/CP_SD/" + knob, req: req})
	}
	req := DefaultJobRequest()
	req.Config = core.QuickConfig()
	req.Config.MixID = 1
	req.Config.PolicyName = "CP_SD"
	req.WarmupCycles = 100_000
	req.MeasureCycles = 300_000
	out = append(out, digestCase{name: "forecast/mix1/CP_SD", req: req, forecast: true})
	return out
}

// digestBlob returns the bytes a row pins: the artifact
// RunRequestArtifact encodes for the request, or the forecast's.
func digestBlob(c digestCase) ([]byte, error) {
	if c.forecast {
		return forecastDigestBlob(c.req)
	}
	body, err := json.Marshal(c.req)
	if err != nil {
		return nil, err
	}
	return RunRequestArtifact(context.Background(), body, nil)
}

// forecastDigestBlob runs req's config through forecast.Run, one phase
// per req window and 10% capacity per prediction, and prints the
// trajectory with the LLC's cumulative statistics: the points alone do
// not show the writebacks InvalidateUnfit issues between phases.
func forecastDigestBlob(req JobRequest) ([]byte, error) {
	sys, err := req.Config.Build()
	if err != nil {
		return nil, err
	}
	fcfg := forecast.DefaultConfig()
	fcfg.WarmupCycles = req.WarmupCycles
	fcfg.PhaseCycles = req.MeasureCycles
	fcfg.CapacityStep = 0.1
	fcfg.MaxPhases = 8
	res := forecast.Run(sys, fcfg)
	return fmt.Appendf(nil, "%+v\n%+v\n", res, sys.LLC().Stats), nil
}

// TestClassicDigests is the behaviour oracle of the classic sequential
// path: the cache key and the artifact bytes of every registry policy on
// two mixes must stay exactly as recorded. Refactors that claim to leave
// the simulation untouched prove it here; a deliberate model change
// refreshes the file with -update and says why.
func TestClassicDigests(t *testing.T) {
	cases := classicDigestRequests()
	got := make([]classicDigest, len(cases))
	errs := make([]error, len(cases))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, c digestCase) {
			defer func() { <-sem; wg.Done() }()
			blob, err := digestBlob(c)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", c.name, err)
				return
			}
			sum := sha256.Sum256(blob)
			got[i] = classicDigest{Name: c.name, CacheKey: c.req.CacheKey(), Artifact: hex.EncodeToString(sum[:])}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if *updateDigests {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(classicDigestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(classicDigestsFile, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(classicDigestsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	var want []classicDigest
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d recorded digests, %d runs", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s drifted:\n got %+v\nwant %+v", got[i].Name, got[i], want[i])
		}
	}
}
