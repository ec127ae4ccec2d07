package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/server"
)

// TestPprofOwnListener checks that -pprof serves the profile index on its
// own listener while the API handler answers 404 at the same path.
func TestPprofOwnListener(t *testing.T) {
	ln, err := servePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap?debug=1"} {
		resp, err := http.Get("http://" + ln.Addr().String() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "heap") {
			t.Fatalf("pprof listener GET %s: %d %.80q", path, resp.StatusCode, body)
		}
	}

	m, err := server.NewManager(server.Options{Workers: -1, QueueDepth: 1, CacheSize: server.NoCache})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	api := httptest.NewServer(server.NewHandler(m, nil))
	defer api.Close()
	resp, err := http.Get(api.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("API handler GET /debug/pprof/: %d, want 404", resp.StatusCode)
	}
}
