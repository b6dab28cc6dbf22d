// Package tracestore persists bhpod's per-job telemetry durably: one
// append-only JSONL file per job under a traces directory, each line one
// events.Event in publish order. It sits behind the event hub as its
// sink, so the file is always a prefix of what live subscribers saw, and
// it is what lets GET /jobs/{id}/trace serve a job's full anytime curve
// after the process that ran the job is gone — including jobs the
// journal replays as interrupted, whose curves previously died with the
// process.
//
// Durability follows the journal's discipline: ordinary events ride the
// OS page cache (losing the tail of a live job's trace on crash only
// shortens its curve, never corrupts it), terminal events are fsynced
// before Append returns and close the job's file. Reads tolerate a torn
// final line — the signature of a crash mid-append — by treating it as
// end-of-trace.
//
// Growth is bounded per job in the style of the segmented journal's
// crash-safe fold: once a job's file grows MaxBytes past its last
// compaction, it is rewritten through a temp file, fsynced and atomically
// renamed over the original, keeping every curve point and lifecycle
// transition and dropping the purely observational events (retries,
// deadline abandonments, failure-budget charges, rung promotions). A
// crash at any instant leaves either the old file or the complete new
// one, never a mix; stale temp files are swept on Open.
package tracestore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"enhancedbhpo/internal/events"
)

// Options tunes a Store.
type Options struct {
	// MaxBytes is the per-job compaction threshold: a job's trace file
	// is compacted once it grows this much past its previous compacted
	// size. 0 selects 1 MiB; negative disables compaction.
	MaxBytes int64
	// OnChange, when non-nil, is called after an append or compaction
	// with the trace file's name (relative to the store directory) and
	// whether the file is now final (the terminal event was fsynced and
	// the file closed) — the shipper's replication hook. Called with the
	// job's file lock held; it must not call back into the store.
	OnChange func(name string, final bool)
}

// Store writes per-job trace files in one directory. Safe for concurrent
// use; appends for different jobs do not contend.
type Store struct {
	dir      string
	maxBytes int64
	onChange func(name string, final bool)
	bytes    atomic.Int64 // on-disk bytes across all trace files
	closed   atomic.Bool  // set by Close before it takes any job's lock

	mu   sync.Mutex
	jobs map[string]*jobFile
}

// jobFile is one job's open trace file. Its lock serializes appends and
// compaction for the job.
type jobFile struct {
	mu   sync.Mutex
	f    *os.File // nil once the terminal event closed it
	size int64
	// floor is the size after the last compaction; the next compaction
	// triggers at floor+maxBytes, so a curve that legitimately exceeds
	// MaxBytes (compaction cannot shrink it) does not re-compact on
	// every append.
	floor int64
}

// tmpSuffix marks in-flight compaction rewrites.
const tmpSuffix = ".tmp"

// fileName is the on-disk trace file for a job ID. IDs are of the
// daemon's own making (job-N), but slashes are rejected defensively so a
// hostile ID cannot escape the directory.
func fileName(jobID string) (string, error) {
	if jobID == "" || strings.ContainsAny(jobID, `/\`) || strings.Contains(jobID, "..") {
		return "", fmt.Errorf("tracestore: invalid job ID %q", jobID)
	}
	return jobID + ".trace.jsonl", nil
}

// Open creates the directory if needed, sweeps temp files left by a
// crash mid-compaction (the original file is still whole — the rename
// never happened), and tallies the existing trace bytes.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("tracestore: empty directory")
	}
	maxBytes := opts.MaxBytes
	if maxBytes == 0 {
		maxBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, onChange: opts.OnChange, jobs: map[string]*jobFile{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if strings.HasSuffix(e.Name(), tmpSuffix) {
			os.Remove(filepath.Join(dir, e.Name()))
			continue
		}
		if !strings.HasSuffix(e.Name(), ".trace.jsonl") {
			continue
		}
		if info, err := e.Info(); err == nil {
			s.bytes.Add(info.Size())
		}
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Bytes reports the total on-disk trace size — the trace_store_bytes
// service metric.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// jobHandle returns (creating if needed) the job's handle.
func (s *Store) jobHandle(jobID string) *jobFile {
	s.mu.Lock()
	defer s.mu.Unlock()
	jf, ok := s.jobs[jobID]
	if !ok {
		jf = &jobFile{}
		s.jobs[jobID] = jf
	}
	return jf
}

// ErrClosed is what Append returns once the store has been closed.
var ErrClosed = errors.New("tracestore: closed")

// Append writes one event as a JSON line to the job's trace file,
// opening it lazily. A terminal event is fsynced and closes the file (a
// finished job holds no descriptor); crossing the compaction threshold
// rewrites the file crash-safely before the append returns. After Close
// it writes nothing and returns ErrClosed.
func (s *Store) Append(ev events.Event) error {
	name, err := fileName(ev.JobID)
	if err != nil {
		return err
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("tracestore: encoding event: %w", err)
	}
	line = append(line, '\n')
	jf := s.jobHandle(ev.JobID)
	jf.mu.Lock()
	defer jf.mu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	path := filepath.Join(s.dir, name)
	if jf.f == nil {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("tracestore: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("tracestore: %w", err)
		}
		jf.f = f
		jf.size = st.Size()
		jf.floor = st.Size()
	}
	if _, err := jf.f.Write(line); err != nil {
		return fmt.Errorf("tracestore: appending: %w", err)
	}
	jf.size += int64(len(line))
	s.bytes.Add(int64(len(line)))
	if ev.Terminal {
		if err := jf.f.Sync(); err != nil {
			return fmt.Errorf("tracestore: fsync: %w", err)
		}
		err := jf.f.Close()
		jf.f = nil
		if err != nil {
			return fmt.Errorf("tracestore: %w", err)
		}
		if s.onChange != nil {
			s.onChange(name, true)
		}
		return nil
	}
	if s.maxBytes > 0 && jf.size >= jf.floor+s.maxBytes {
		if err := s.compactLocked(jf, path); err != nil {
			return err
		}
	}
	if s.onChange != nil {
		s.onChange(name, false)
	}
	return nil
}

// durable reports whether an event survives compaction: curve points
// and lifecycle transitions are the trace's durable payload; retries,
// deadline abandonments, failure-budget charges and rung promotions are
// observational and re-derivable live, so they are shed first.
func durable(ev events.Event) bool {
	return ev.Type == events.TypeCurvePoint || ev.Type == events.TypeStatus
}

// compactLocked rewrites the job's trace keeping only durable events,
// via temp file + fsync + atomic rename (the journal fold's machinery):
// visible state flips from old-whole to new-whole in one step. Called
// with the job lock held; the append handle is reopened on the new file.
func (s *Store) compactLocked(jf *jobFile, path string) error {
	evs, err := readFile(path)
	if err != nil {
		return err
	}
	kept := evs[:0]
	for _, ev := range evs {
		if durable(ev) {
			kept = append(kept, ev)
		}
	}
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	enc := json.NewEncoder(f)
	for _, ev := range kept {
		if err := enc.Encode(ev); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("tracestore: compacting: %w", err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("tracestore: fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracestore: %w", err)
	}
	st, err := os.Stat(tmp)
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracestore: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tracestore: %w", err)
	}
	// The old append handle points at the unlinked inode; reopen on the
	// compacted file so later appends land where readers look.
	jf.f.Close()
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		jf.f = nil
		return fmt.Errorf("tracestore: reopening after compaction: %w", err)
	}
	s.bytes.Add(st.Size() - jf.size)
	jf.f = f
	jf.size = st.Size()
	jf.floor = st.Size()
	return nil
}

// ReadJob returns the job's persisted events in order. A missing file is
// an empty trace; a torn final line (crash mid-append) ends the trace at
// the last whole event. Reads are consistent under concurrent appends
// and compaction for the same job.
func (s *Store) ReadJob(jobID string) ([]events.Event, error) {
	name, err := fileName(jobID)
	if err != nil {
		return nil, err
	}
	jf := s.jobHandle(jobID)
	jf.mu.Lock()
	defer jf.mu.Unlock()
	return readFile(filepath.Join(s.dir, name))
}

// Read reads one job's trace file from a directory without a Store —
// the post-mortem path (a crashed daemon's traces can be inspected
// without opening the store for writing). Same torn-tail tolerance as
// ReadJob.
func Read(dir, jobID string) ([]events.Event, error) {
	name, err := fileName(jobID)
	if err != nil {
		return nil, err
	}
	return readFile(filepath.Join(dir, name))
}

// readFile decodes one trace file; a torn final line ends the trace.
func readFile(path string) ([]events.Event, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	defer f.Close()
	var out []events.Event
	dec := json.NewDecoder(f)
	for {
		var ev events.Event
		if err := dec.Decode(&ev); err != nil {
			if errors.Is(err, io.EOF) {
				return out, nil
			}
			// Torn tail: crash mid-append. Everything before it is whole.
			return out, nil
		}
		out = append(out, ev)
	}
}

// Jobs lists the job IDs that have a trace file on disk.
func (s *Store) Jobs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	var out []string
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".trace.jsonl"); ok && !e.IsDir() {
			out = append(out, id)
		}
	}
	return out, nil
}

// Close syncs and closes every open trace file, for good: an Append that
// has not taken its job's lock yet returns ErrClosed instead of reopening
// the file, so a runner that outlives Shutdown — or a manager a test has
// "killed" — cannot write beside the store's successor. Reads keep
// working. Idempotent.
func (s *Store) Close() error {
	s.closed.Store(true)
	s.mu.Lock()
	jobs := make([]*jobFile, 0, len(s.jobs))
	for _, jf := range s.jobs {
		jobs = append(jobs, jf)
	}
	s.mu.Unlock()
	var first error
	for _, jf := range jobs {
		jf.mu.Lock()
		if jf.f != nil {
			if err := jf.f.Sync(); err != nil && first == nil {
				first = err
			}
			if err := jf.f.Close(); err != nil && first == nil {
				first = err
			}
			jf.f = nil
		}
		jf.mu.Unlock()
	}
	return first
}
