// Package journal gives bhpod crash-safe job persistence: an append-only
// JSONL log per data directory recording job submissions, status
// transitions and terminal results. The write path is sequenced so that a
// crash at any instant loses at most the record being written: every
// record is one JSON line, terminal records are fsynced before Append
// returns, and Replay takes the bytes after a segment's last newline — a
// line a crash cut short — for a torn tail that ends the segment.
//
// The log is segmented, and nothing rewrites or deletes a segment:
//
//	journal-000008.jsonl   sealed segment
//	journal-000009.jsonl   an earlier life's last segment, maybe torn
//	journal-000010.jsonl   active segment (appends go here)
//
// Segments are written, numbered, listed and read by seglog, as the trace
// log's are: every life starts its own segment, the one after the newest
// base or segment on disk, created at its first record; a write that fails
// is undone, so a record appended after it is replayed, not hidden behind
// half a line. Append seals the active segment once it passes the
// configured size and goes on in the next one.
//
// Older binaries compacted the log into base-NNNNNN.jsonl files, each the
// fold of every segment up to its sequence. Replay still reads the newest
// base and the segments above it, ignoring older bases and the segments a
// base folded, so their data directories boot. A gap in the sequence
// means a segment was lost, and Replay fails rather than silently
// dropping jobs; so does a whole line that does not decode.
package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
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

// Options tunes a Writer as they tune its seglog.Log; OnChange is the
// shipper's replication hook.
type Options = seglog.Options

// Writer appends records to a data directory's journal, rotating the
// active segment at Options.MaxBytes. Safe for concurrent use.
type Writer struct {
	log *seglog.Log
}

// OpenOptions creates the data directory if needed and opens its journal
// for appending: this life's records go to the segment after the newest
// base or segment, created at the first of them. Every file already there
// is announced to opts.OnChange as sealed.
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

// Stats reports the journal files currently on disk (bases and segments)
// and their total size — the payload behind the journal_segments and
// journal_bytes service metrics.
type Stats struct {
	Segments int
	Bytes    int64
}

// DirStats lists a data directory's journal files. Best-effort: an
// unreadable directory reports zero.
func DirStats(dir string) Stats {
	segs, _ := seglog.List(dir, prefixes...)
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

// Replay reads a data directory's journal — the newest base an older
// binary left, then the segments above it — into per-job states in first
// submission order. A missing journal yields no states; a torn tail ends
// its segment at the last whole record; a missing segment or a whole line
// that does not decode is an error naming the file.
func Replay(dir string) ([]JobState, error) {
	all, err := seglog.List(dir, prefixes...)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
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
	acc := replayState{byID: map[string]*JobState{}}
	err = seglog.Read(dir, segs, func(line []byte) error {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("corrupt record: %w", err)
		}
		acc.apply(rec)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	out := make([]JobState, 0, len(acc.order))
	for _, id := range acc.order {
		out = append(out, *acc.byID[id])
	}
	return out, nil
}
