// Package jobstore is the durability layer of the simd daemon: an
// append-only JSONL journal of job and sweep state transitions plus a
// directory of content-addressed result artifacts. Together they make
// the daemon crash-recoverable — on boot the journal replays into the
// last known state of every job and sweep, terminal results are served
// from their artifacts, and anything that was queued or running is
// re-executed from its recorded request (the simulator is bit-exact
// deterministic, so re-execution is indistinguishable from resumption).
//
// Layout under the root directory:
//
//	journal.jsonl      one JSON object per state transition, append-only
//	artifacts/<key>    result blobs named by their request cache key
//
// Journal writes are synced; artifact writes go through a temp file and
// rename, so a crash never leaves a half-written artifact under its
// final name. A crash can truncate the journal's last line — Replay
// tolerates exactly that (the torn tail is dropped, anything before it
// is intact because every append syncs), and Open ends the torn line
// before the next append can extend it.
package jobstore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Entry is one journal line: a state transition of a job or a sweep.
// Fields are populated as relevant to the transition; creation entries
// carry the full request/spec document so recovery can re-execute
// without any other source of truth.
type Entry struct {
	Time  time.Time `json:"ts"`
	Kind  string    `json:"kind"` // KindJob or KindSweep
	ID    string    `json:"id"`
	State string    `json:"state"`

	// Job entries.
	Sweep       string          `json:"sweep,omitempty"` // owning sweep, if any
	Label       string          `json:"label,omitempty"` // sweep-child axis label
	CacheKey    string          `json:"cache_key,omitempty"`
	Attempt     int             `json:"attempt,omitempty"`
	Worker      string          `json:"worker,omitempty"` // fleet lease: executing worker ID
	Lease       string          `json:"lease,omitempty"`  // fleet lease: lease token
	Error       string          `json:"error,omitempty"`
	Request     json.RawMessage `json:"request,omitempty"`      // creation: the decoded-and-revalidated submission
	ArtifactSHA string          `json:"artifact_sha,omitempty"` // completion: SHA-256 of the artifact bytes

	// Sweep entries.
	Spec     json.RawMessage `json:"spec,omitempty"`     // creation: the sweep spec document
	Children []string        `json:"children,omitempty"` // creation: child job IDs in expansion order
}

// Entry kinds.
const (
	KindJob   = "job"
	KindSweep = "sweep"
)

// Store is an open journal + artifact directory. All methods are safe
// for concurrent use.
type Store struct {
	root string

	mu      sync.Mutex
	journal *os.File
}

const (
	journalName  = "journal.jsonl"
	artifactsDir = "artifacts"
)

// Open creates (if needed) and opens the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, artifactsDir), 0o755); err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	if err := endTornLine(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	return &Store{root: dir, journal: f}, nil
}

// endTornLine makes the journal end on a line boundary before the first
// append. A crash mid-append leaves a final line without its newline;
// appending after it would glue the next entry onto it, turning a
// tolerated torn tail into corruption before the tail. A final line that
// parses (only the newline was lost) is terminated, as Replay keeps it;
// any other is cut off, as Replay drops it.
func endTornLine(f *os.File) error {
	data, err := io.ReadAll(f)
	if err != nil || len(data) == 0 || data[len(data)-1] == '\n' {
		return err
	}
	start := bytes.LastIndexByte(data, '\n') + 1
	var e Entry
	if json.Unmarshal(bytes.TrimSpace(data[start:]), &e) == nil {
		_, err = f.Write([]byte{'\n'})
	} else {
		err = f.Truncate(int64(start))
	}
	if err != nil {
		return err
	}
	return f.Sync()
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Close closes the journal file. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Close()
}

// Append writes one journal entry and syncs it to stable storage, so
// an entry either survives a crash whole or (the torn tail) not at all.
// An Entry with a zero Time is stamped with the current time.
func (s *Store) Append(e Entry) error {
	if e.Time.IsZero() {
		e.Time = time.Now().UTC()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("jobstore: marshal entry: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.journal.Write(line); err != nil {
		return fmt.Errorf("jobstore: append: %w", err)
	}
	if err := s.journal.Sync(); err != nil {
		return fmt.Errorf("jobstore: sync: %w", err)
	}
	return nil
}

// Replay reads the journal from the start and returns every intact
// entry in append order. A torn final line (crash mid-append) is
// dropped silently; corruption anywhere else is an error — it means
// something other than a crash rewrote history.
func Replay(dir string) ([]Entry, error) {
	f, err := os.Open(filepath.Join(dir, journalName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("jobstore: %w", err)
	}
	defer f.Close()
	var entries []Entry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	torn := ""
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if torn != "" {
			return nil, fmt.Errorf("jobstore: corrupt journal line before the tail: %q", torn)
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			// Only the final line may be torn; remember and verify.
			torn = string(line)
			continue
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("jobstore: read journal: %w", err)
	}
	return entries, nil
}

// artifactPath maps a cache key to its artifact file. Keys are
// hex-encoded hashes; anything else is rejected to keep file naming
// path-traversal-proof.
func (s *Store) artifactPath(key string) (string, error) {
	if key == "" || strings.ContainsAny(key, "/\\.") {
		return "", fmt.Errorf("jobstore: invalid artifact key %q", key)
	}
	return filepath.Join(s.root, artifactsDir, key), nil
}

// PutArtifact durably stores the result blob under its cache key and
// returns the SHA-256 of the bytes (hex), for the completion journal
// entry. The write is temp-file + rename: a crash leaves either the old
// artifact or the new one, never a torn file. Re-putting the bytes a key
// already holds is a no-op. Artifacts are content-addressed by their
// inputs and the simulator is deterministic, so differing bytes mean the
// file on disk is corrupt or belongs to another key: it is replaced, or
// every later boot would re-run the job again.
func (s *Store) PutArtifact(key string, data []byte) (string, error) {
	path, err := s.artifactPath(key)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	sha := hex.EncodeToString(sum[:])
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, data) {
		return sha, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), key+".tmp*")
	if err != nil {
		return "", fmt.Errorf("jobstore: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return "", fmt.Errorf("jobstore: write artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", fmt.Errorf("jobstore: sync artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return "", fmt.Errorf("jobstore: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("jobstore: publish artifact: %w", err)
	}
	return sha, nil
}

// GetArtifact loads the artifact stored under key; ok is false when no
// artifact exists. When wantSHA is non-empty the loaded bytes are hash-
// verified against it — a mismatch (disk corruption, manual tampering)
// is an error, not a silent wrong result.
func (s *Store) GetArtifact(key, wantSHA string) ([]byte, bool, error) {
	path, err := s.artifactPath(key)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("jobstore: %w", err)
	}
	if wantSHA != "" {
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != wantSHA {
			return nil, false, fmt.Errorf("jobstore: artifact %s hash mismatch: journal says %s, disk holds %s", key, wantSHA, got)
		}
	}
	return data, true, nil
}

// HasArtifact reports whether an artifact exists for key.
func (s *Store) HasArtifact(key string) bool {
	path, err := s.artifactPath(key)
	if err != nil {
		return false
	}
	_, err = os.Stat(path)
	return err == nil
}

// CountArtifacts returns the number of stored artifacts (a gauge for
// /metrics; walks the directory, so not for hot paths).
func (s *Store) CountArtifacts() int {
	names, err := os.ReadDir(filepath.Join(s.root, artifactsDir))
	if err != nil {
		return 0
	}
	n := 0
	for _, d := range names {
		if !d.IsDir() && !strings.Contains(d.Name(), ".tmp") {
			n++
		}
	}
	return n
}

// JobRecord is the reduced state of one job after journal replay: its
// latest state plus the creation-time fields recovery needs.
type JobRecord struct {
	ID          string
	Sweep       string
	Label       string
	State       string
	CacheKey    string
	Attempt     int
	Error       string
	Request     json.RawMessage
	ArtifactSHA string
}

// SweepRecord is the reduced state of one sweep after journal replay.
type SweepRecord struct {
	ID       string
	State    string
	Spec     json.RawMessage
	Children []string
}

// Reduced is the journal folded into current state: every job and sweep
// under its latest state, in first-appearance order.
type Reduced struct {
	Jobs       []*JobRecord
	Sweeps     []*SweepRecord
	jobIndex   map[string]*JobRecord
	sweepIndex map[string]*SweepRecord
}

// Job looks a reduced job record up by ID.
func (r *Reduced) Job(id string) (*JobRecord, bool) {
	j, ok := r.jobIndex[id]
	return j, ok
}

// Sweep looks a reduced sweep record up by ID.
func (r *Reduced) Sweep(id string) (*SweepRecord, bool) {
	s, ok := r.sweepIndex[id]
	return s, ok
}

// Reduce folds replayed entries into the latest state of every job and
// sweep. Later entries win field-by-field: a transition updates the
// state without clearing the creation request, a completion records
// the artifact hash, and so on.
func Reduce(entries []Entry) *Reduced {
	r := &Reduced{
		jobIndex:   make(map[string]*JobRecord),
		sweepIndex: make(map[string]*SweepRecord),
	}
	for _, e := range entries {
		switch e.Kind {
		case KindJob:
			j, ok := r.jobIndex[e.ID]
			if !ok {
				j = &JobRecord{ID: e.ID}
				r.jobIndex[e.ID] = j
				r.Jobs = append(r.Jobs, j)
			}
			j.State = e.State
			if e.Sweep != "" {
				j.Sweep = e.Sweep
			}
			if e.Label != "" {
				j.Label = e.Label
			}
			if e.CacheKey != "" {
				j.CacheKey = e.CacheKey
			}
			if e.Attempt > j.Attempt {
				j.Attempt = e.Attempt
			}
			if e.Error != "" {
				j.Error = e.Error
			}
			if len(e.Request) > 0 {
				j.Request = e.Request
			}
			if e.ArtifactSHA != "" {
				j.ArtifactSHA = e.ArtifactSHA
			}
		case KindSweep:
			s, ok := r.sweepIndex[e.ID]
			if !ok {
				s = &SweepRecord{ID: e.ID}
				r.sweepIndex[e.ID] = s
				r.Sweeps = append(r.Sweeps, s)
			}
			s.State = e.State
			if len(e.Spec) > 0 {
				s.Spec = e.Spec
			}
			if len(e.Children) > 0 {
				s.Children = e.Children
			}
		}
	}
	return r
}
