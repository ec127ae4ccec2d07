package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/fleet"
)

// FuzzSweepSpecDecode fuzzes the sweep submission boundary with
// arbitrary documents: decode + expansion must never panic, and an
// expansion that succeeds must respect the declared child cap — a
// hostile spec can be rejected but can never make the daemon queue an
// unbounded grid.
func FuzzSweepSpecDecode(f *testing.F) {
	f.Add(sweepTestBody)
	f.Add(`{}`)
	f.Add(`{"axes":[]}`)
	f.Add(`{"axes":[{"field":"cpth","values":[20,30,40]}]}`)
	f.Add(`{"axes":[{"field":"policy","values":["CA"]},{"field":"seed","values":[1,2,3]}],"max_children":2}`)
	f.Add(`{"axes":[{"field":"tournament","values":[{"candidates":[{"policy":"CA","cpth":20}]}]}]}`)
	f.Add(`{"axes":[{"field":"llc_sets","values":[1048577]}]}`)
	f.Add(`{"base":{"config":{"policy":"CP_SD"}},"concurrency":-5,"max_children":-1}`)
	f.Add(`{"axes":[{"field":"cpth","values":[` + strings.Repeat("1,", 2000) + `1]}]}`)
	f.Add(`{"axes":[{"field":"capacity","values":[0.5,1]},{"field":"shards","values":[0,4]}]}`)
	// The retired analytic planner's fields must be refused, never
	// silently dropped: a client that asked for screening would otherwise
	// get a different sweep than it thinks.
	retired := []string{
		`{"plan":"analytic","axes":[{"field":"policy","values":["BH","CA"]}]}`,
		`{"plan_calibration_cycles":300000}`,
	}
	for _, doc := range retired {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := DecodeSweepSpec([]byte(doc))
		if slices.Contains(retired, doc) && err == nil {
			t.Fatalf("retired planner field accepted: %q", doc)
		}
		if err != nil {
			return // rejection is fine; panicking is not
		}
		children, err := spec.Expand()
		if err != nil {
			return
		}
		if len(children) > spec.maxChildren() || len(children) > MaxSweepChildren {
			t.Fatalf("expansion of %d children escaped the cap %d (spec %q)",
				len(children), spec.maxChildren(), doc)
		}
		for _, c := range children {
			// Every expanded child passed validation; the bounded-geometry
			// allowlist holds behind the fuzzer too.
			if err := c.Request.Validate(); err != nil {
				t.Fatalf("expansion emitted an invalid child: %v (spec %q)", err, doc)
			}
		}
	})
}

// FuzzEstimateSpecDecode fuzzes the POST /v1/estimate boundary: decode
// must never panic, and a document it accepts must yield a validated
// spec whose cache key is well-formed — the key names a store artifact,
// so a malformed one would let a hostile body write outside the
// estimate namespace. Checked-in seeds live under
// testdata/fuzz/FuzzEstimateSpecDecode.
func FuzzEstimateSpecDecode(f *testing.F) {
	f.Add(estimateTestBody)
	f.Add(`{}`)
	f.Add(`{"config":{"policy":"CP_SD","shards":4},"target_capacity":0.3}`)
	f.Add(`{"calibration_cycles":0}`)
	f.Add(`{"target_capacity":1.5}`)
	f.Fuzz(func(t *testing.T, doc string) {
		spec, err := DecodeEstimateSpec([]byte(doc))
		if err != nil {
			return // rejection is fine; panicking is not
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted spec fails validation: %v (body %q)", err, doc)
		}
		key := spec.CacheKey()
		if !strings.HasPrefix(key, "est-") || len(key) != len("est-")+64 {
			t.Fatalf("malformed cache key %q (body %q)", key, doc)
		}
		if strings.ContainsAny(key[4:], "/\\.") {
			t.Fatalf("cache key %q escapes the artifact namespace (body %q)", key, doc)
		}
	})
}

// FuzzLeaseComplete fuzzes lease completion on a granted lease with
// arbitrary artifact bytes, declared digest, error text and transient
// flag. It must never panic. An upload resolves the lease and completes
// the job only when the digest, the decode and the cache key all match;
// any other upload leaves the lease active and the job running. An
// error report always resolves the lease (requeue or failure).
// Checked-in seeds live under testdata/fuzz/FuzzLeaseComplete.
func FuzzLeaseComplete(f *testing.F) {
	req, err := DecodeJobRequest([]byte(leaseTestBody))
	if err != nil {
		f.Fatal(err)
	}
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	valid, err := encodeResult(req.CacheKey(), &Result{CPthWinner: -1})
	if err != nil {
		f.Fatal(err)
	}
	other, err := encodeResult("another-key", &Result{CPthWinner: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, digest(valid), "", false)
	f.Add(valid, digest(other), "", false)
	f.Add(other, digest(other), "", false)
	f.Add([]byte(`{"version":2}`), digest([]byte(`{"version":2}`)), "", false)
	f.Add([]byte(nil), "", "worker panicked", true)
	f.Add(valid, digest(valid), "simulation failed", false)
	f.Fuzz(func(t *testing.T, artifact []byte, sha, errText string, transient bool) {
		m, err := NewManager(Options{Workers: -1, QueueDepth: 1,
			Retries: 1, LeaseTTL: time.Minute})
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		j, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		g, err := m.AcquireLease(context.Background(), "w1", time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := m.CompleteLease(g.Token, fleet.CompleteRequest{
			Artifact: artifact, ArtifactSHA: sha, Error: errText, Transient: transient})
		_, lease := m.leases.Peek(g.Token)
		if errText != "" {
			if err != nil || lease == fleet.TokenActive {
				t.Fatalf("error report: err %v, lease %v", err, lease)
			}
			return
		}
		_, key, derr := decodeResult(artifact)
		if sha == digest(artifact) && derr == nil && key == j.CacheKey() {
			if err != nil || resp.Resolution != fleet.ResolutionCompleted || j.State() != StateCompleted {
				t.Fatalf("matching upload: err %v, resolution %q, job %s", err, resp.Resolution, j.State())
			}
			return
		}
		if err == nil || lease != fleet.TokenActive || j.State() != StateRunning {
			t.Fatalf("mismatched upload: err %v, lease %v, job %s", err, lease, j.State())
		}
	})
}
