package jobstore

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestJournalAppendReplay(t *testing.T) {
	s := openTestStore(t)
	entries := []Entry{
		{Kind: KindSweep, ID: "sweep-000001", State: "running", Spec: []byte(`{"axes":[]}`), Children: []string{"job-000001"}},
		{Kind: KindJob, ID: "job-000001", Sweep: "sweep-000001", State: "queued", CacheKey: "aa", Request: []byte(`{"config":{}}`)},
		{Kind: KindJob, ID: "job-000001", State: "running", Attempt: 1},
		{Kind: KindJob, ID: "job-000001", State: "completed", ArtifactSHA: "deadbeef"},
		{Kind: KindSweep, ID: "sweep-000001", State: "completed"},
	}
	for _, e := range entries {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Replay(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(entries) {
		t.Fatalf("replayed %d entries, want %d", len(got), len(entries))
	}
	for i, e := range entries {
		g := got[i]
		if g.Kind != e.Kind || g.ID != e.ID || g.State != e.State {
			t.Fatalf("entry %d = %+v, want %+v", i, g, e)
		}
		if g.Time.IsZero() {
			t.Fatalf("entry %d not timestamped", i)
		}
	}

	r := Reduce(got)
	j, ok := r.Job("job-000001")
	if !ok {
		t.Fatal("job missing from reduction")
	}
	if j.State != "completed" || j.Sweep != "sweep-000001" || j.CacheKey != "aa" ||
		j.Attempt != 1 || j.ArtifactSHA != "deadbeef" || len(j.Request) == 0 {
		t.Fatalf("reduced job %+v", j)
	}
	sw, ok := r.Sweep("sweep-000001")
	if !ok {
		t.Fatal("sweep missing from reduction")
	}
	if sw.State != "completed" || len(sw.Children) != 1 || len(sw.Spec) == 0 {
		t.Fatalf("reduced sweep %+v", sw)
	}
}

func TestReplayEmptyAndMissing(t *testing.T) {
	if got, err := Replay(t.TempDir()); err != nil || got != nil {
		t.Fatalf("missing journal: %v, %v", got, err)
	}
	s := openTestStore(t)
	if got, err := Replay(s.Root()); err != nil || len(got) != 0 {
		t.Fatalf("empty journal: %v, %v", got, err)
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	s := openTestStore(t)
	for i := 0; i < 3; i++ {
		if err := s.Append(Entry{Kind: KindJob, ID: "job-000001", State: "running", Attempt: i + 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash mid-append: a torn, unterminated final line.
	path := filepath.Join(s.Root(), "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"ts":"2026-01-01T00:00:00Z","kind":"job","id":"jo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got, err := Replay(s.Root())
	if err != nil {
		t.Fatalf("torn tail must be tolerated: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("replayed %d entries, want 3", len(got))
	}
}

// TestOpenEndsTornLine reopens a journal a crash left mid-line and
// appends to it: a torn fragment is cut off, a complete entry that lost
// only its newline is kept, and either way the journal still replays.
func TestOpenEndsTornLine(t *testing.T) {
	for _, c := range []struct {
		name, tail string
		want       int
	}{
		{"torn", `{"ts":"2026-01-01T00:00:00Z","kind":"job","id":"jo`, 2},
		{"newline lost", `{"ts":"2026-01-01T00:00:00Z","kind":"job","id":"b","state":"queued"}`, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append(Entry{Kind: KindJob, ID: "a", State: "queued"}); err != nil {
				t.Fatal(err)
			}
			s.Close()
			f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString(c.tail)
			f.Close()

			s, err = Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Append(Entry{Kind: KindJob, ID: "c", State: "queued"}); err != nil {
				t.Fatal(err)
			}
			got, err := Replay(dir)
			if err != nil {
				t.Fatalf("replay after reopening a torn journal: %v", err)
			}
			if len(got) != c.want || got[len(got)-1].ID != "c" {
				t.Fatalf("replayed %+v, want %d entries ending in c", got, c.want)
			}
		})
	}
}

func TestReplayRejectsMidJournalCorruption(t *testing.T) {
	s := openTestStore(t)
	if err := s.Append(Entry{Kind: KindJob, ID: "a", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.Root(), "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("garbage not json\n")
	f.Close()
	if err := s.Append(Entry{Kind: KindJob, ID: "b", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(s.Root()); err == nil {
		t.Fatal("mid-journal corruption must be an error, not silently skipped")
	}
}

func TestArtifactRoundTripAndVerify(t *testing.T) {
	s := openTestStore(t)
	key := "0123abcd"
	data := []byte(`{"version":1,"summary":{}}`)
	sha, err := s.PutArtifact(key, data)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if sha != hex.EncodeToString(sum[:]) {
		t.Fatalf("returned sha %s", sha)
	}
	if !s.HasArtifact(key) {
		t.Fatal("HasArtifact false after put")
	}
	got, ok, err := s.GetArtifact(key, sha)
	if err != nil || !ok || string(got) != string(data) {
		t.Fatalf("get: %q %v %v", got, ok, err)
	}
	// Unverified load works too.
	if _, ok, err := s.GetArtifact(key, ""); err != nil || !ok {
		t.Fatalf("unverified get: %v %v", ok, err)
	}
	// Wrong hash is an explicit error.
	if _, _, err := s.GetArtifact(key, "00"); err == nil {
		t.Fatal("hash mismatch not reported")
	}
	// Missing key is a clean miss.
	if _, ok, err := s.GetArtifact("ffff", ""); ok || err != nil {
		t.Fatalf("missing artifact: %v %v", ok, err)
	}
	// Re-putting the same key is a no-op, not an error.
	if _, err := s.PutArtifact(key, data); err != nil {
		t.Fatal(err)
	}
	if n := s.CountArtifacts(); n != 1 {
		t.Fatalf("CountArtifacts = %d", n)
	}
}

// TestPutArtifactReplacesDifferentBytes: a key whose file holds other
// bytes (a corrupt or foreign artifact) is overwritten by the next put,
// and re-putting the same bytes leaves the file in place.
func TestPutArtifactReplacesDifferentBytes(t *testing.T) {
	s := openTestStore(t)
	key := "0123abcd"
	if _, err := s.PutArtifact(key, []byte(`{"bad":true}`)); err != nil {
		t.Fatal(err)
	}
	good := []byte(`{"version":1,"summary":{}}`)
	sha, err := s.PutArtifact(key, good)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetArtifact(key, sha)
	if err != nil || !ok || string(got) != string(good) {
		t.Fatalf("after replace: %q %v %v", got, ok, err)
	}
	path := filepath.Join(s.Root(), "artifacts", key)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutArtifact(key, good); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Fatal("re-putting identical bytes rewrote the file")
	}
	if n := s.CountArtifacts(); n != 1 {
		t.Fatalf("CountArtifacts = %d, want 1 (temp file left behind?)", n)
	}
}

func TestArtifactKeyRejectsPathTraversal(t *testing.T) {
	s := openTestStore(t)
	for _, bad := range []string{"", "../escape", "a/b", `a\b`, "x.json"} {
		if _, err := s.PutArtifact(bad, []byte("x")); err == nil {
			t.Errorf("key %q accepted", bad)
		}
		if s.HasArtifact(bad) {
			t.Errorf("HasArtifact(%q) true", bad)
		}
	}
}
