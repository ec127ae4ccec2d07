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
}

// classicDigestRequests is the oracle's matrix: every registry policy on
// QuickConfig mixes 1 and 4. Mix 1 runs unaged; mix 4 is pre-aged to 80%
// capacity so the aging path is pinned too. The 500K-cycle epochs close
// four set-dueling epochs inside the measured window. Three CP_SD rows
// add each coloring scheme, whose remap advances at epoch boundaries.
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
			out = append(out, digestCase{fmt.Sprintf("mix%d/%s", mix, pol), req})
		}
	}
	for _, cc := range []core.ColoringConfig{
		{Scheme: core.ColoringXOR, Mask: 0x5a},
		{Scheme: core.ColoringRot, Step: 3},
		{Scheme: core.ColoringWear, Pairs: 4},
	} {
		cc := cc
		req := DefaultJobRequest()
		req.Config = core.QuickConfig()
		req.Config.MixID = 1
		req.Config.Coloring = &cc
		req.WarmupCycles = 500_000
		req.MeasureCycles = 2_000_000
		out = append(out, digestCase{fmt.Sprintf("mix1/%s/coloring=%s", req.Config.PolicyName, cc.Scheme), req})
	}
	return out
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
		go func(i int, name string, req JobRequest) {
			defer func() { <-sem; wg.Done() }()
			body, err := json.Marshal(req)
			if err != nil {
				errs[i] = err
				return
			}
			blob, err := RunRequestArtifact(context.Background(), body, nil)
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", name, err)
				return
			}
			sum := sha256.Sum256(blob)
			got[i] = classicDigest{Name: name, CacheKey: req.CacheKey(), Artifact: hex.EncodeToString(sum[:])}
		}(i, c.name, c.req)
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
