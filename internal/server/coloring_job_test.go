package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestColoringJobRejectedPreQueue: an invalid coloring document fails at
// the submission boundary — DecodeJobRequest errors and the HTTP front
// door answers 400 with nothing queued — while a valid document is
// accepted; documents of the retired xor and rotate schemes must say
// they were retired. The same Validate call gates sweep children, so a
// sweep cannot fan out jobs the workers would only reject later.
func TestColoringJobRejectedPreQueue(t *testing.T) {
	bad := []string{
		`{"config":{"coloring":{"scheme":"bogus"}}}`,
		`{"config":{"coloring":{"scheme":"wear","pairs":100000}}}`,
		`{"config":{"coloring":{"scheme":"wear","step":3}}}`,         // retired knob
		`{"config":{"coloring":{"scheme":"xor","step":3}}}`,          // retired scheme
		`{"config":{"llc_sets":768,"coloring":{"scheme":"xor"}}}`,    // retired scheme
		`{"config":{"coloring":{"scheme":"rotate","interval":"x"}}}`, // retired scheme
		`{"config":{"coloring":{"scheme":"rotate","interval_epochs":4,"step":37}}}`,
	}
	for _, body := range bad {
		_, err := DecodeJobRequest([]byte(body))
		if err == nil {
			t.Errorf("decode accepted %s", body)
			continue
		}
		retired := strings.Contains(body, `"xor"`) || strings.Contains(body, `"rotate"`)
		if retired && !strings.Contains(err.Error(), "retired") {
			t.Errorf("decode of %s: error %q does not say the scheme was retired", body, err)
		}
	}
	if _, err := DecodeJobRequest([]byte(`{"config":{"coloring":{"scheme":"wear","interval_epochs":2,"pairs":32}}}`)); err != nil {
		t.Fatalf("valid coloring rejected: %v", err)
	}

	m := newTestManager(t, Options{Workers: 1, QueueDepth: 2})
	srv := httptest.NewServer(NewHandler(m, nil))
	defer srv.Close()
	for _, body := range bad {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if got := m.Registry().Snapshot().Counter("server.jobs.submitted"); got != 0 {
		t.Fatalf("invalid coloring reached the queue: %d jobs submitted", got)
	}
}

// TestColoringCacheKey: the coloring document is a simulation-affecting
// input, so it must split the result index — and two identical documents
// must share a key even through separate decodes.
func TestColoringCacheKey(t *testing.T) {
	decode := func(body string) JobRequest {
		req, err := DecodeJobRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	plain := decode(`{}`)
	wear := decode(`{"config":{"coloring":{"scheme":"wear","pairs":8}}}`)
	wear2 := decode(`{"config":{"coloring":{"scheme":"wear","pairs":8}}}`)
	pairs16 := decode(`{"config":{"coloring":{"scheme":"wear","pairs":16}}}`)
	if wear.CacheKey() == plain.CacheKey() {
		t.Fatal("coloring on/off share a cache key")
	}
	if wear.CacheKey() != wear2.CacheKey() {
		t.Fatal("identical coloring documents hash differently")
	}
	if wear.CacheKey() == pairs16.CacheKey() {
		t.Fatal("different coloring documents share a cache key")
	}
}
