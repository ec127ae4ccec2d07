package jobstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// replayBytes replays data as the journal of a fresh store directory.
func replayBytes(t *testing.T, data []byte) ([]Entry, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return Replay(dir)
}

// FuzzJournalReplay feeds arbitrary bytes to Replay as a journal. It
// must never panic, and input either errors or replays to entries that,
// appended to a new journal, replay identically. On that rewritten
// journal and on the input itself it then checks the torn-tail rule: an
// unparsable final line is dropped silently, while an unparsable line
// before the last one is an error.
func FuzzJournalReplay(f *testing.F) {
	const torn = `{"ts":"2026-01-01T00:00:00Z","kind":"jo`
	valid, err := json.Marshal(Entry{Time: time.Unix(1, 0).UTC(), Kind: KindJob, ID: "job-000009", State: "queued"})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		entries, err := replayBytes(t, data)
		if err != nil {
			return
		}

		// Re-append through Append. It stamps a zero Time with the
		// clock, so pin those first.
		for i := range entries {
			if entries[i].Time.IsZero() {
				entries[i].Time = time.Unix(0, 0).UTC()
			}
		}
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, e := range entries {
			if err := s.Append(e); err != nil {
				t.Fatalf("re-append %+v: %v", e, err)
			}
		}
		again, err := Replay(s.Root())
		if err != nil {
			t.Fatalf("rewritten journal does not replay: %v", err)
		}
		want, _ := json.Marshal(entries)
		got, _ := json.Marshal(again)
		if !bytes.Equal(got, want) {
			t.Fatalf("rewritten journal replays differently:\n got %s\nwant %s", got, want)
		}

		journal, err := os.ReadFile(filepath.Join(s.Root(), journalName))
		if err != nil {
			t.Fatal(err)
		}
		tornTail, err := replayBytes(t, append(journal, torn...))
		if err != nil {
			t.Fatalf("torn tail not tolerated: %v", err)
		}
		if got, _ := json.Marshal(tornTail); !bytes.Equal(got, want) {
			t.Fatalf("torn tail changed the entries:\n got %s\nwant %s", got, want)
		}
		for _, tail := range []string{torn + "\n" + string(valid), torn + "\n" + torn} {
			if _, err := replayBytes(t, slices.Concat(data, []byte("\n"+tail))); err == nil {
				t.Fatalf("corrupt line before the tail accepted: %q", tail)
			}
		}
	})
}
