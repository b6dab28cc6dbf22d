// Package journal is bhpod's job table on disk: the records of job
// submissions, status transitions, preemptions and terminal results, and
// Fold, which folds them back into per-job states after a restart, from
// two sources in this order:
//
//   - the journal files an older binary wrote at the data directory's
//     root — segments (journal-000008.jsonl) and the bases it compacted
//     them into (base-000007.jsonl, the fold of every segment up to 7) —
//     which nothing writes now;
//   - the record lines of the trace log (tracestore), where
//     Manager.transition appends each record just before the event of the
//     same transition, whose fsync covers a result record too.
//
// A record is one JSON line. A torn tail — the bytes after a segment's
// last newline — ends its segment; a whole record line that does not
// decode, or a segment lost from the middle of either log after a record,
// fails the fold rather than silently dropping jobs. The records stay
// records, not events, while the benchmark harness reads them through
// Replay and times a Writer (ROADMAP items 4 and 7).
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"enhancedbhpo/internal/serve/seglog"
	"enhancedbhpo/internal/serve/tracestore"
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
	// it is durable once Append, or the terminal event written after it,
	// returns.
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
	// Budget; nothing writes a curve now — the trace log's curve_point
	// events are the one copy.
	Curve []trace.Point `json:"curve,omitempty"`
	// Budget on a result record is the job's final cumulative budget (its
	// curve's last cum_budget): what a restart re-seeds the tenant's
	// accounting with, without the curve.
	Budget     int            `json:"budget,omitempty"`
	BestConfig map[string]any `json:"best_config,omitempty"`
	BestScore  *float64       `json:"best_score,omitempty"`
	TestScore  *float64       `json:"test_score,omitempty"`
	// Checkpoint is the serve layer's opaque payload on preempt records:
	// its preemption count. Checkpoints older binaries wrote carry the
	// trial list as well.
	Checkpoint json.RawMessage `json:"checkpoint,omitempty"`
	// Preemptions on a result record carries the job's final yield
	// count, which a base an older binary folded the job's preempt
	// records into no longer tells.
	Preemptions int `json:"preemptions,omitempty"`
	// Failures on a result record is how many failed trials the job's
	// failure budget absorbed.
	Failures int `json:"failures,omitempty"`
}

// prefixes name the journal's files: its segments, then the bases older
// binaries compacted it into.
var prefixes = []string{"journal-", "base-"}

// Files lists the journal files in dir — segments and bases — in sequence
// order. A missing directory holds none.
func Files(dir string) ([]seglog.Segment, error) { return seglog.List(dir, prefixes...) }

// Options tunes a Writer as they tune its seglog.Log; OnChange is the
// shipper's replication hook.
type Options = seglog.Options

// Writer appends records to journal files, as older binaries did,
// rotating the active segment at Options.MaxBytes. Safe for concurrent
// use. Only the benchmark harness opens one now (ROADMAP item 4): bhpod
// appends its records to the trace log.
type Writer struct {
	log *seglog.Log
}

// OpenOptions creates the data directory if needed and opens its journal
// files for appending: this life's records go to the segment after the
// newest base or segment, created at the first of them. Every file
// already there is announced to opts.OnChange as sealed.
func OpenOptions(dir string, opts Options) (*Writer, error) {
	if dir == "" {
		return nil, errors.New("journal: empty data dir")
	}
	log, err := seglog.Open(dir, opts, prefixes...)
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

// Stats reports the journal files on disk (bases and segments) and their
// total size.
type Stats struct {
	Segments int
	Bytes    int64
}

// DirStats lists a data directory's journal files for the benchmark
// harness. Best-effort: an unreadable directory reports zero.
func DirStats(dir string) Stats {
	segs, _ := Files(dir)
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

// replayState accumulates records across files in first-submission order.
type replayState struct {
	byID  map[string]*JobState
	order []string
	spec  func(id string, spec json.RawMessage) error // Fold's
}

// applyLine decodes one record line and merges it.
func (r *replayState) applyLine(line []byte) error {
	var rec Record
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("corrupt record: %w", err)
	}
	r.apply(rec)
	if rec.Type == TypeSubmit && r.spec != nil {
		return r.spec(rec.JobID, rec.Spec)
	}
	return nil
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

// Replay reads a data directory's records, as Fold does, into per-job
// states in first submission order.
func Replay(dir string) ([]JobState, error) {
	states, _, err := Fold(dir, nil)
	return states, err
}

// Log is what Fold's read of the trace log leaves besides the records:
// the event lines, filed under their jobs; the gap that cost only events,
// if there is one (tracestore.ErrEventsLost); how long the read took.
type Log struct {
	History map[string]tracestore.History
	Lost    error
	Took    time.Duration
}

// Fold folds a data directory's records — the newest base an older binary
// left and the journal segments above it, then the record lines of the
// trace log — into per-job states in first submission order. It reads the
// log once, with tracestore.ReadAll on a goroutine of its own that hands
// over the record lines 64 at a time, so this one wakes once per batch.
// Unless spec is nil, it gets each submit record's job ID and spec as the
// record is folded — a boot decodes the specs while the log is read — and
// an error from it fails the fold. A torn tail ends its segment; a record
// line that does not decode or a missing segment is an error naming the
// file, save a gap in the trace log that no record came before (Log.Lost).
func Fold(dir string, spec func(id string, spec json.RawMessage) error) (states []JobState, log Log, err error) {
	records, filed := make(chan [][]byte, 64), make(chan Log, 1)
	go func() {
		begin := time.Now()
		var batch [][]byte
		history, err := tracestore.ReadAll(tracestore.Dir(dir), func(line []byte) {
			if batch = append(batch, line); len(batch) == 64 {
				records <- batch
				batch = nil
			}
		})
		records <- batch
		close(records)
		filed <- Log{history, err, time.Since(begin)}
	}()
	defer func() {
		for range records { // the reader never blocks
		}
		if log = <-filed; err == nil && log.Lost != nil && !errors.Is(log.Lost, tracestore.ErrEventsLost) {
			states, err = nil, fmt.Errorf("journal: %w", log.Lost)
		}
	}()
	all, err := Files(dir)
	if err != nil {
		return nil, log, fmt.Errorf("journal: %w", err)
	}
	// A base holds every record of the files before it: older bases and
	// the segment it shares its sequence number with, which sorts after it.
	var segs []seglog.Segment
	for _, seg := range all {
		if strings.HasPrefix(seg.Name, "base-") {
			segs = segs[:0]
		} else if n := len(segs); n > 0 && seg.Seq == segs[n-1].Seq {
			continue
		}
		segs = append(segs, seg)
	}
	acc := replayState{byID: map[string]*JobState{}, spec: spec}
	if err := seglog.Read(dir, segs, acc.applyLine); err != nil {
		return nil, log, fmt.Errorf("journal: %w", err)
	}
	for batch := range records {
		for _, line := range batch {
			if err := acc.applyLine(line); err != nil {
				return nil, log, fmt.Errorf("journal: %w", tracestore.Locate(tracestore.Dir(dir), line, err))
			}
		}
	}
	for _, id := range acc.order {
		states = append(states, *acc.byID[id])
	}
	return states, log, nil
}
