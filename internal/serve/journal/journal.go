// Package journal is bhpod's job table on disk: the records of job
// submissions, status transitions, preemptions and terminal results, and
// Fold, which folds them back into per-job states after a restart. The
// records are lines of the trace log (tracestore), where
// Manager.transition appends each record just before the event of the
// same transition, whose fsync covers a result record too; a data
// directory holds nothing else (refuseOlder).
//
// A record is one JSON line, which json.Marshal writes and a boot decodes
// by hand (Decoder), or with json.Unmarshal if it is not in the form
// json.Marshal gives. A torn tail — the bytes after a segment's
// last newline — ends its segment; a whole record line that does not
// decode, or a segment lost from the middle of the log, fails the fold
// rather than silently dropping jobs. The records stay records, not
// events, while the benchmark harness reads them through Replay and times
// a Writer (ROADMAP items 4 and 7).
package journal

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"enhancedbhpo/internal/serve/seglog"
	"enhancedbhpo/internal/serve/tracestore"
)

// Record types.
const (
	// TypeSubmit records a job's acceptance: ID plus the defaulted spec.
	TypeSubmit = "submit"
	// TypeStatus records a non-terminal lifecycle transition (running).
	TypeStatus = "status"
	// TypeResult records a terminal state with everything needed to serve
	// the job after a restart except its curve, which the trace log holds;
	// it is durable once Append, or the terminal event written after it,
	// returns.
	TypeResult = "result"
	// TypePreempt records a rung-boundary preemption: the scheduler
	// reclaimed the job's slot after Evaluations trials, and Checkpoint
	// carries the serve layer's preemption count — a few bytes however
	// long the job has run, because the trials' curve points are in the
	// trace log. On replay the job is queued with the checkpoint attached,
	// so a restart resumes it from those points instead of from scratch;
	// the latest preempt record wins and a terminal result supersedes it.
	TypePreempt = "preempt"
)

// Record is one journal line. The spec travels as raw JSON so this
// package stays independent of the serve layer's types.
type Record struct {
	Type  string          `json:"t"`
	Time  time.Time       `json:"time"`
	JobID string          `json:"job"`
	Token string          `json:"token,omitempty"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	// Tenant is the submitting tenant, carried on submit and preempt
	// records so a restart rebuilds per-tenant accounting without
	// decoding every spec.
	Tenant      string `json:"tenant,omitempty"`
	Status      string `json:"status,omitempty"`
	Reason      string `json:"reason,omitempty"`
	Error       string `json:"error,omitempty"`
	Stack       string `json:"stack,omitempty"`
	Evaluations int    `json:"evaluations,omitempty"`
	// Budget on a result record is the job's final cumulative budget (its
	// curve's last cum_budget): what a restart re-seeds the tenant's
	// accounting with, without the curve.
	Budget     int            `json:"budget,omitempty"`
	BestConfig map[string]any `json:"best_config,omitempty"`
	BestScore  *float64       `json:"best_score,omitempty"`
	TestScore  *float64       `json:"test_score,omitempty"`
	// Checkpoint is the serve layer's opaque payload on preempt records:
	// its preemption count.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// Preemptions on a result record carries the job's final yield count.
	Preemptions int `json:"preemptions,omitempty"`
	// Failures on a result record is how many failed trials the job's
	// failure budget absorbed.
	Failures int `json:"failures,omitempty"`
}

// writerPrefix names the files a Writer appends to: journal-000001.jsonl.
const writerPrefix = "journal-"

// Options tunes a Writer as they tune its seglog.Log.
type Options = seglog.Options

// Writer appends records to files of their own (journal-000001.jsonl),
// rotating the active segment at Options.MaxBytes. Safe for concurrent
// use. Only the benchmark harness opens one, to time the appends (ROADMAP
// item 4): bhpod appends its records to the trace log, and a boot refuses
// a directory holding a Writer's files.
type Writer struct {
	log *seglog.Log
}

// OpenOptions creates the directory if needed and opens its journal files
// for appending: this life's records go to the segment after the newest,
// created at the first of them. Every file already there is announced to
// opts.OnChange as sealed.
func OpenOptions(dir string, opts Options) (*Writer, error) {
	if dir == "" {
		return nil, errors.New("journal: empty data dir")
	}
	log, err := seglog.Open(dir, opts, writerPrefix)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Writer{log: log}, nil
}

// Append writes one record as a JSON line. Terminal (result) records are
// fsynced before Append returns, so a finished job survives any later
// crash; non-terminal records ride on the OS page cache — losing one
// degrades a job from running to queued on replay, never corrupts it.
// When the active segment passes MaxBytes the append also seals it.
func (w *Writer) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: encoding record: %w", err)
	}
	// Results are a job's final word; preempt records are a resumable
	// job's only recovery point — both are worth the fsync.
	if _, err := w.log.Append(append(line, '\n'), rec.Type == TypeResult || rec.Type == TypePreempt); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close syncs and closes the active segment. Idempotent; a later Append
// fails.
func (w *Writer) Close() error {
	return w.log.Close()
}

// Stats reports a Writer's files on disk and their total size.
type Stats struct {
	Segments int
	Bytes    int64
}

// DirStats lists the files a Writer left in dir, for the benchmark
// harness, which alone writes them. Best-effort: an unreadable directory
// reports zero.
func DirStats(dir string) Stats {
	segs, _ := seglog.List(dir, writerPrefix)
	s := Stats{Segments: len(segs)}
	for _, seg := range segs {
		s.Bytes += seg.Size
	}
	return s
}

// JobState is the merged view of one job after replaying its records.
// Status "" or "queued" means the job never started; "running" means the
// process died mid-run; anything else is the journaled terminal state.
type JobState struct {
	ID          string
	Token       string
	Tenant      string
	Spec        json.RawMessage
	Status      string
	Reason      string
	Error       string
	Stack       string
	Evaluations int
	Budget      int
	BestConfig  map[string]any
	BestScore   *float64
	TestScore   *float64
	SubmittedAt time.Time
	// StartedAt is the first running record's time: a preempted job
	// started when it first ran, not at its last resume.
	StartedAt  time.Time
	FinishedAt time.Time
	// Checkpoint is the latest preempt record's payload for a job that has
	// not reached a terminal state, which Evaluations then counts the
	// resume point of. Nil once a terminal record lands.
	Checkpoint  json.RawMessage
	Preemptions int
	Failures    int
}

// Terminal reports whether the state is a journaled terminal outcome.
func (s JobState) Terminal() bool {
	switch s.Status {
	case "", "queued", "running":
		return false
	}
	return true
}

// replayState accumulates records in first-submission order.
type replayState struct {
	byID   map[string]*JobState
	order  []string
	spec   func(id string, spec json.RawMessage) error // Fold's
	decode Decoder
}

// applyLine decodes one record line and merges it: by hand when the line
// is in the form Manager.transition writes (Decoder.Record), else with
// json.Unmarshal. A count below zero is no record Manager.transition
// writes, and would index a job's curve backwards: the line is corrupt.
func (r *replayState) applyLine(line []byte) error {
	rec, ok := r.decode.Record(line)
	if !ok {
		var err error
		if rec, err = unmarshalRecord(line); err != nil {
			return fmt.Errorf("corrupt record: %w", err)
		}
	}
	if min(rec.Evaluations, rec.Budget, rec.Preemptions, rec.Failures) < 0 {
		return errors.New("corrupt record: a negative count")
	}
	r.apply(rec)
	if rec.Type == TypeSubmit && r.spec != nil {
		return r.spec(rec.JobID, rec.Spec)
	}
	return nil
}

// unmarshalRecord decodes a record line that Decoder.Record does not, with
// json.Unmarshal: a function of its own, so that only such a line puts a
// Record on the heap.
func unmarshalRecord(line []byte) (rec Record, err error) {
	err = json.Unmarshal(line, &rec)
	return rec, err
}

// apply merges one record.
func (r *replayState) apply(rec Record) {
	st, ok := r.byID[rec.JobID]
	if !ok {
		st = &JobState{ID: rec.JobID, Status: "queued"}
		r.byID[rec.JobID] = st
		r.order = append(r.order, rec.JobID)
	}
	switch rec.Type {
	case TypeSubmit:
		st.Spec = rec.Spec
		st.SubmittedAt = rec.Time
		if rec.Token != "" {
			st.Token = rec.Token
		}
		if rec.Tenant != "" {
			st.Tenant = rec.Tenant
		}
	case TypeStatus:
		st.Status = rec.Status
		if rec.Status == "running" && st.StartedAt.IsZero() {
			st.StartedAt = rec.Time
		}
	case TypePreempt:
		st.Status = "queued"
		st.Checkpoint = rec.Checkpoint
		st.Preemptions++
		st.Evaluations = rec.Evaluations
		if rec.Tenant != "" {
			st.Tenant = rec.Tenant
		}
	case TypeResult:
		st.Status = rec.Status
		st.Reason = rec.Reason
		st.Error = rec.Error
		st.Stack = rec.Stack
		st.Evaluations = rec.Evaluations
		if rec.Preemptions > 0 {
			st.Preemptions = rec.Preemptions
		}
		st.Failures = rec.Failures
		st.Budget = rec.Budget
		st.BestConfig = rec.BestConfig
		st.BestScore = rec.BestScore
		st.TestScore = rec.TestScore
		st.FinishedAt = rec.Time
		st.Checkpoint = nil // terminal outcome supersedes any checkpoint
	}
}

// Replay reads a data directory's records, as Fold does, into per-job
// states in first submission order.
func Replay(dir string) ([]JobState, error) {
	states, _, err := Fold(dir, nil)
	return states, err
}

// Log is what Fold's read of the trace log leaves besides the records:
// the event lines, filed under their jobs, and how long the read took.
type Log struct {
	History map[string]tracestore.History
	Took    time.Duration
}

// Fold folds the record lines of a data directory's trace log into
// per-job states in first submission order, once refuseOlder has found
// nothing in the directory that this bhpod does not write. It reads the
// log once, with tracestore.ReadAll on a goroutine of its own that checks
// and files the event lines and hands over the record lines 64 at a time,
// so this one wakes once per batch. This one decodes each record line by
// hand if Manager.transition could have written it (Decoder.Record),
// else with json.Unmarshal; either way the record is the same. Unless
// spec is nil, it gets each
// submit record's job ID and spec as the record is folded — a boot
// decodes the specs while the log is read — and an error from it fails
// the fold. A torn tail ends its segment; a record line that does not
// decode or a missing segment is an error naming the file.
func Fold(dir string, spec func(id string, spec json.RawMessage) error) (states []JobState, log Log, err error) {
	if err := refuseOlder(dir); err != nil {
		return nil, log, err
	}
	records := make(chan [][]byte, 64)
	var read Log // the reader's, until it closes records
	var readErr error
	go func() {
		begin := time.Now()
		batch := make([][]byte, 0, 64)
		read.History, readErr = tracestore.ReadAll(tracestore.Dir(dir), func(line []byte) {
			if batch = append(batch, line); len(batch) == cap(batch) {
				records <- batch
				batch = make([][]byte, 0, 64)
			}
		})
		read.Took = time.Since(begin)
		records <- batch
		close(records)
	}()
	defer func() {
		for range records { // the reader never blocks
		}
		if log = read; err == nil && readErr != nil {
			states, err = nil, fmt.Errorf("journal: %w", readErr)
		}
	}()
	acc := replayState{byID: map[string]*JobState{}, spec: spec}
	for batch := range records {
		for _, line := range batch {
			if err := acc.applyLine(line); err != nil {
				return nil, log, fmt.Errorf("journal: %w", tracestore.Locate(tracestore.Dir(dir), line, err))
			}
		}
	}
	states = make([]JobState, 0, len(acc.order))
	for _, id := range acc.order {
		states = append(states, *acc.byID[id])
	}
	return states, log, nil
}

// refuseOlder is the one place that decides what a data directory may
// hold. The trace log is all this bhpod writes there: journal segments and
// bases at the root and per-job trace files under traces/ are files of a
// format it does not read, and booting beside them would serve a job table
// without their jobs. The first such file fails the boot by name, before
// anything is opened or written; anything else is not the log's and is
// left alone.
func refuseOlder(dir string) error {
	name := cmp.Or(firstMatch(dir, "journal-*.jsonl", "base-*.jsonl"), firstMatch(tracestore.Dir(dir), "*.trace.jsonl"))
	if name == "" {
		return nil
	}
	return fmt.Errorf("journal: %s was written by an older bhpod, which this one does not read: "+
		"move it out of %s, or give this bhpod a new data directory", name, filepath.Dir(name))
}

// firstMatch returns the path of the first file in dir whose name matches
// one of patterns, "" if none does. A directory that cannot be listed
// holds none here: the log's read reports it.
func firstMatch(dir string, patterns ...string) string {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		for _, pattern := range patterns {
			if ok, _ := filepath.Match(pattern, e.Name()); ok {
				return filepath.Join(dir, e.Name())
			}
		}
	}
	return ""
}
