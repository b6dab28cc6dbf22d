// Package journal gives bhpod crash-safe job persistence: an append-only
// JSONL log per data directory recording job submissions, status
// transitions and terminal results. The write path is sequenced so that a
// crash at any instant loses at most the record being written: every
// record is one JSON line, terminal records are fsynced before Append
// returns, and Replay tolerates a torn final line (the signature of a
// crash mid-write) by treating it as end-of-log.
//
// The log is segmented so it stays bounded while the daemon runs:
//
//	base-000007.jsonl      compacted fold of every segment ≤ 7 (optional)
//	journal-000008.jsonl   sealed segment
//	journal-000009.jsonl   active segment (appends go here)
//
// Segments are written through seglog, the writer the trace log shares:
// every life starts its own segment, the one after the newest base or
// segment, created at its first record; a write that fails is undone, so
// a record appended after it is replayed, not hidden behind half a line.
// Append rotates to a fresh segment once the active one passes the
// configured size and re-compacts everything sealed so far into a new
// base in the background, using the same temp-file + atomic-rename
// machinery as startup Compact. The fold is ordered so a crash at any
// point is recoverable: the new base becomes visible atomically *before*
// the files it folds are deleted, and Replay ignores bases older than the
// newest and segments at or below the newest base's sequence — stale
// leftovers, never data. A gap *above* the base sequence, by contrast,
// means a sealed segment was lost and Replay fails with a clear error
// rather than silently dropping jobs.
//
// On startup the serve layer replays the log into per-job states,
// reclassifies jobs that were mid-run when the process died, and rewrites
// the log compacted — one submit (plus one terminal) record per job —
// so the journal does not grow across restarts and a crash during
// compaction leaves the previous log intact.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"enhancedbhpo/internal/serve/seglog"
	"enhancedbhpo/internal/trace"
)

// Record types.
const (
	// TypeSubmit records a job's acceptance: ID plus the defaulted spec.
	TypeSubmit = "submit"
	// TypeStatus records a non-terminal lifecycle transition (running).
	TypeStatus = "status"
	// TypeResult records a terminal state with everything needed to serve
	// the job after a restart except its curve, which the trace log holds;
	// it is fsynced.
	TypeResult = "result"
	// TypeEvent is an observational incident record (reason "deadline":
	// an evaluation was abandoned by the watchdog) that earlier versions
	// wrote. Nothing writes it now — the trace log's deadline event tells
	// the same, with the evaluation's budget — and replay skips it, so
	// their data directories still boot.
	TypeEvent = "event"
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
// package stays independent of the serve layer's types; the curves older
// binaries embedded decode through the trace package's Point.
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
	// Curve is the anytime curve a result record written by an older
	// binary embeds. Replay reads only its last point's cum_budget, as
	// Budget, and compaction writes that budget instead; nothing writes a
	// curve now — the trace log's curve_point events are the one copy.
	Curve []trace.Point `json:"curve,omitempty"`
	// Budget on a result record is the job's final cumulative budget (its
	// curve's last cum_budget): what a restart re-seeds the tenant's
	// accounting with, without the curve.
	Budget     int            `json:"budget,omitempty"`
	BestConfig map[string]any `json:"best_config,omitempty"`
	BestScore  *float64       `json:"best_score,omitempty"`
	TestScore  *float64       `json:"test_score,omitempty"`
	// Checkpoint is the serve layer's opaque payload on preempt records:
	// its preemption count, which compaction would otherwise fold away.
	// Checkpoints older binaries wrote carry the trial list as well.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// Preemptions on a result record carries the job's final yield
	// count, so compaction — which folds the preempt history of a
	// finished job away — does not lose it.
	Preemptions int `json:"preemptions,omitempty"`
	// Failures on a result record is how many failed trials the job's
	// failure budget absorbed.
	Failures int `json:"failures,omitempty"`
}

// segmentName and baseName are the on-disk names for sequence seq.
func segmentName(seq int) string { return seglog.Name("journal-", seq) }
func baseName(seq int) string    { return seglog.Name("base-", seq) }

// parseSeq extracts the sequence from a segment or base file name.
func parseSeq(name, prefix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, ".jsonl") {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, prefix), ".jsonl")
	n, err := strconv.Atoi(mid)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// layout is the scanned shape of a data directory: the newest base (the
// compacted fold, if any) and every numbered segment, sorted.
type layout struct {
	hasBase bool
	baseSeq int
	segs    []int // sorted ascending; may include stale seqs ≤ baseSeq
}

// scanDir reads the directory into a layout. A missing directory is an
// empty layout.
func scanDir(dir string) (layout, error) {
	var lay layout
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return lay, nil
	}
	if err != nil {
		return lay, fmt.Errorf("journal: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if n, ok := parseSeq(e.Name(), "journal-"); ok {
			lay.segs = append(lay.segs, n)
			continue
		}
		if n, ok := parseSeq(e.Name(), "base-"); ok {
			if !lay.hasBase || n > lay.baseSeq {
				lay.hasBase = true
				lay.baseSeq = n
			}
		}
	}
	sort.Ints(lay.segs)
	return lay, nil
}

// liveSegs returns the segments that carry data under this layout: those
// strictly above the base sequence. Segments at or below it are stale
// leftovers of a fold that crashed between rename and cleanup.
func (l layout) liveSegs() []int {
	if !l.hasBase {
		return l.segs
	}
	i := sort.SearchInts(l.segs, l.baseSeq+1)
	return l.segs[i:]
}

// maxSeq returns the highest sequence the layout knows about.
func (l layout) maxSeq() int {
	m := 0
	if l.hasBase {
		m = l.baseSeq
	}
	if n := len(l.segs); n > 0 && l.segs[n-1] > m {
		m = l.segs[n-1]
	}
	return m
}

// Options tunes a Writer.
type Options struct {
	// MaxBytes rotates the active segment once it reaches this size; the
	// sealed segments are re-compacted into a fresh base in the
	// background. 0 or negative disables rotation.
	MaxBytes int64
	// OnError receives background fold errors (the live append path is
	// unaffected by a failed fold; the data stays in the sealed segments).
	OnError func(error)
	// OnChange, when non-nil, is the shipper's replication hook: called
	// for the segments as seglog.Options.OnChange is, and with true for
	// each base a background fold publishes.
	OnChange func(name string, sealed bool)
}

// Writer appends records to a data directory's journal, rotating the
// active segment at Options.MaxBytes. Safe for concurrent use.
type Writer struct {
	dir    string
	opts   Options
	log    *seglog.Log
	foldWG sync.WaitGroup
}

// Open creates the data directory if needed and opens its journal for
// appending with rotation disabled. Use OpenOptions to bound segments.
func Open(dir string) (*Writer, error) {
	return OpenOptions(dir, Options{})
}

// OpenOptions creates the data directory if needed and opens its journal
// for appending: this life's records go to the segment after the newest
// base or segment, created at the first of them.
func OpenOptions(dir string, opts Options) (*Writer, error) {
	if dir == "" {
		return nil, errors.New("journal: empty data dir")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	lay, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	if opts.OnError == nil {
		opts.OnError = func(error) {}
	}
	if opts.OnChange == nil {
		opts.OnChange = func(string, bool) {}
	}
	w := &Writer{dir: dir, opts: opts}
	w.log = seglog.Open(dir, "journal-", lay.maxSeq()+1, seglog.Options{MaxBytes: opts.MaxBytes, OnChange: w.changed})
	return w, nil
}

// Append writes one record as a JSON line. Terminal (result) records are
// fsynced before Append returns, so a finished job survives any later
// crash; non-terminal records ride on the OS page cache — losing one
// degrades a job from running to queued on replay, never corrupts it.
// When the active segment passes MaxBytes the append also rotates: the
// segment is sealed and a background fold re-compacts everything sealed
// so far into a new base.
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

// changed passes a segment's change on to OnChange and, once rotation has
// sealed the segment, folds the sealed history into a new base in the
// background. It first waits for any previous fold, so at most one
// unfolded sealed generation ever exists — that is what bounds the
// directory at roughly base + one sealed generation + the active segment.
func (w *Writer) changed(name string, sealed bool) {
	if !sealed {
		w.opts.OnChange(name, false)
		return
	}
	w.foldWG.Wait()
	w.opts.OnChange(name, true)
	seq, _ := parseSeq(name, "journal-")
	w.foldWG.Add(1)
	go func() {
		defer w.foldWG.Done()
		if err := foldDir(w.dir, seq); err != nil {
			w.opts.OnError(err)
		} else {
			w.opts.OnChange(baseName(seq), true)
		}
	}()
}

// Close syncs and closes the active segment, then waits for any
// in-flight fold. Idempotent; a later Append fails.
func (w *Writer) Close() error {
	err := w.log.Close()
	w.foldWG.Wait()
	return err
}

// Stats reports the journal files currently on disk (base + segments)
// and their total size — the payload behind the journal_segments and
// journal_bytes service metrics.
type Stats struct {
	Segments int
	Bytes    int64
}

// DirStats scans a data directory for journal files. Best-effort: an
// unreadable directory reports zero.
func DirStats(dir string) Stats {
	var s Stats
	entries, err := os.ReadDir(dir)
	if err != nil {
		return s
	}
	for _, e := range entries {
		_, isSeg := parseSeq(e.Name(), "journal-")
		_, isBase := parseSeq(e.Name(), "base-")
		if !isSeg && !isBase {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		s.Segments++
		s.Bytes += info.Size()
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

// replayState accumulates records across files in first-submission order.
type replayState struct {
	byID  map[string]*JobState
	order []string
}

// apply merges one record. Event records are observational and skipped.
func (r *replayState) apply(rec Record) {
	if rec.Type == TypeEvent {
		return
	}
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
		if n := len(rec.Curve); n > 0 {
			st.Budget = rec.Curve[n-1].CumBudget
		}
		st.BestConfig = rec.BestConfig
		st.BestScore = rec.BestScore
		st.TestScore = rec.TestScore
		st.FinishedAt = rec.Time
		st.Checkpoint = nil // terminal outcome supersedes any checkpoint
	}
}

// replayFile decodes one journal file into the accumulator. tornOK
// tolerates a decode error as a torn tail (crash mid-append) — only ever
// granted to the final, active segment; a decode error anywhere else is
// corruption and fails the replay.
func (r *replayState) replayFile(path string, tornOK bool) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			if tornOK {
				// Crash mid-write: stop at the last whole record.
				return nil
			}
			return fmt.Errorf("journal: torn record in sealed file %s: %w", filepath.Base(path), err)
		}
		r.apply(rec)
	}
}

// replayFiles resolves the layout into the ordered file list to replay
// and verifies the live segment sequence is contiguous: the first live
// segment must directly follow the base, and no live segment may be
// missing — a gap means a sealed segment was lost.
func replayFiles(dir string, lay layout) ([]string, error) {
	var files []string
	if lay.hasBase {
		files = append(files, filepath.Join(dir, baseName(lay.baseSeq)))
	}
	live := lay.liveSegs()
	for i, seq := range live {
		want := seq
		switch {
		case i == 0 && lay.hasBase:
			want = lay.baseSeq + 1
		case i > 0:
			want = live[i-1] + 1
		}
		if seq != want {
			return nil, fmt.Errorf("journal: missing segment %s (found %s after %s): %w",
				segmentName(want), segmentName(seq), baseName(lay.baseSeq), errSegmentGap)
		}
		files = append(files, filepath.Join(dir, segmentName(seq)))
	}
	return files, nil
}

// replayLayout merges the layout's base and live segments, tolerating a
// torn tail only in the newest segment.
func replayLayout(dir string, lay layout) ([]JobState, error) {
	files, err := replayFiles(dir, lay)
	if err != nil {
		return nil, err
	}
	acc := replayState{byID: map[string]*JobState{}}
	nLive := len(lay.liveSegs())
	for i, path := range files {
		tornOK := nLive > 0 && i == len(files)-1
		if err := acc.replayFile(path, tornOK); err != nil {
			return nil, err
		}
	}
	out := make([]JobState, 0, len(acc.order))
	for _, id := range acc.order {
		out = append(out, *acc.byID[id])
	}
	return out, nil
}

// errSegmentGap marks a gap in the live segment sequence. A persistent
// gap is lost data and fails the replay; a transient one is the
// signature of a background fold racing the directory scan and is
// retried against a fresh scan.
var errSegmentGap = errors.New("segment sequence gap")

// Replay retry budget for the replay-vs-fold race below.
const (
	replayRetries    = 20
	replayRetryDelay = 10 * time.Millisecond
)

// Replay reads a data directory's journal — newest base plus the live
// segment sequence — into per-job states in first submission order. A
// missing journal yields no states; a torn final line in the newest
// segment (crash mid-write) ends the replay cleanly at the last whole
// record; a missing middle segment or a torn sealed file is an error.
//
// A replacement process can replay a directory while the process it is
// replacing is still folding it (double-start, or recovery racing a
// dying daemon's background fold): files listed by the scan may be
// folded into a newer base and deleted before they are opened. Both
// shapes of that race — a vanished file and a transient sequence gap —
// are re-scanned and retried; the fold is monotonic, so a fresh scan
// converges on a consistent layout. Only a persistent gap (genuinely
// lost data) is reported.
func Replay(dir string) ([]JobState, error) {
	var lastErr error
	for attempt := 0; attempt < replayRetries; attempt++ {
		if attempt > 0 {
			time.Sleep(replayRetryDelay)
		}
		lay, err := scanDir(dir)
		if err != nil {
			return nil, err
		}
		states, err := replayLayout(dir, lay)
		if err == nil {
			return states, nil
		}
		if !errors.Is(err, os.ErrNotExist) && !errors.Is(err, errSegmentGap) {
			return nil, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// writeBase writes the states as a compacted base file for seq via a
// temp file and an atomic rename: a submit record per job, a running
// transition where one was seen, and a result record for terminal jobs.
func writeBase(dir string, seq int, states []JobState) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	final := filepath.Join(dir, baseName(seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	enc := json.NewEncoder(f)
	write := func(rec Record) error { return enc.Encode(rec) }
	for _, st := range states {
		if err := write(Record{Type: TypeSubmit, Time: st.SubmittedAt, JobID: st.ID, Token: st.Token, Tenant: st.Tenant, Spec: st.Spec}); err != nil {
			f.Close()
			return fmt.Errorf("journal: compacting: %w", err)
		}
		if !st.StartedAt.IsZero() {
			if err := write(Record{Type: TypeStatus, Time: st.StartedAt, JobID: st.ID, Status: "running"}); err != nil {
				f.Close()
				return fmt.Errorf("journal: compacting: %w", err)
			}
		}
		if !st.Terminal() && st.Checkpoint != nil {
			// One preempt record preserves the resume point; the serve
			// layer's checkpoint payload carries its own preemption count,
			// so folding the history to a single record loses nothing.
			if err := write(Record{Type: TypePreempt, Time: st.SubmittedAt, JobID: st.ID, Tenant: st.Tenant, Evaluations: st.Evaluations, Checkpoint: st.Checkpoint}); err != nil {
				f.Close()
				return fmt.Errorf("journal: compacting: %w", err)
			}
		}
		if st.Terminal() {
			rec := Record{
				Type:        TypeResult,
				Time:        st.FinishedAt,
				JobID:       st.ID,
				Status:      st.Status,
				Reason:      st.Reason,
				Error:       st.Error,
				Stack:       st.Stack,
				Evaluations: st.Evaluations,
				Budget:      st.Budget,
				BestConfig:  st.BestConfig,
				BestScore:   st.BestScore,
				TestScore:   st.TestScore,
				Preemptions: st.Preemptions,
				Failures:    st.Failures,
			}
			if err := write(rec); err != nil {
				f.Close()
				return fmt.Errorf("journal: compacting: %w", err)
			}
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// cleanupBelow best-effort deletes bases older than keepBase and
// segments at or below seg. Failures leave stale files that every replay
// path already ignores, so they are not errors.
func cleanupBelow(dir string, keepBase, seg int, lay layout) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), "base-"); ok && n < keepBase {
			os.Remove(filepath.Join(dir, e.Name()))
		}
		if n, ok := parseSeq(e.Name(), "journal-"); ok && n <= seg {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// foldDir re-compacts the base and every sealed segment up to and
// including upto into a new base-upto, then removes the folded files.
// The new base is visible atomically before anything is deleted, so a
// crash at any point leaves a replayable directory.
func foldDir(dir string, upto int) error {
	lay, err := scanDir(dir)
	if err != nil {
		return err
	}
	// Restrict the layout to sealed history: segments beyond upto (the
	// active one, or later) stay out of the fold.
	trimmed := lay
	trimmed.segs = nil
	for _, s := range lay.segs {
		if s <= upto {
			trimmed.segs = append(trimmed.segs, s)
		}
	}
	states, err := replayLayout(dir, trimmed)
	if err != nil {
		return fmt.Errorf("folding segments ≤ %d: %w", upto, err)
	}
	if err := writeBase(dir, upto, states); err != nil {
		return err
	}
	cleanupBelow(dir, upto, upto, lay)
	return nil
}

// Compact rewrites the whole journal to the minimal record set
// reproducing the given states: one base file at the directory's highest
// sequence, written via a temp file and an atomic rename, replacing every
// earlier base and segment. A crash mid-compaction leaves the previous
// journal untouched; a crash between the rename and the cleanup leaves
// stale files that replay ignores. The next OpenOptions appends to a
// fresh segment after the base.
func Compact(dir string, states []JobState) error {
	lay, err := scanDir(dir)
	if err != nil {
		return err
	}
	seq := lay.maxSeq()
	if err := writeBase(dir, seq, states); err != nil {
		return err
	}
	cleanupBelow(dir, seq, seq, lay)
	return nil
}
