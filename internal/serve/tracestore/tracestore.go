// Package tracestore is bhpod's one durable log: an append-only,
// size-rotated JSONL log shared by every job of a data directory
// (trace-000007.jsonl under its traces directory). Its lines are of two
// kinds, told apart by their first key alone (isRecord): an event line
// ({"seq":…) is one events.Event, appended by the event hub's sink in
// publish order, so the events on disk are a prefix of what subscribers
// saw; a record line ({"t":…) is one journal.Record, which the manager
// appends just before the event of the same transition and
// journal.Replay folds into the job table. No event reader sees a record.
//
// Ordinary lines ride the OS page cache (losing a live job's tail only
// shortens it, never corrupts it); a terminal event is fsynced before
// Append returns, and so is a record its caller asks to sync. A finished
// job creates, closes and renames nothing.
//
// The segments are written, numbered, listed and read by seglog: a
// segment that passes MaxBytes is sealed and never written again, and
// neither is one a previous process left — every Open announces those as
// sealed and starts a new one at its first line, so nothing is appended
// behind a torn line, and a write that fails part-way is cut back off. A
// reader ends a segment at a line that is not whole — no newline, not
// JSON, no job — and goes on to the next; a segment missing from the
// sequence is an error, returned with everything the others hold.
//
// Read decodes one job's events, for post-mortems and tests. ReadAll, the
// boot's one pass over the log, decodes nothing: it checks that every
// event line is JSON (jsonscan.Valid, json.Valid's answer), files it under
// its job as bytes (History), decoded when the job is first asked for, and
// hands each record line to its caller, who folds it.
package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve/jsonscan"
	"enhancedbhpo/internal/serve/seglog"
)

// Options tunes a Store: seglog's, except that MaxBytes 0 selects 1 MiB.
// OnChange is the shipper's replication hook.
type Options = seglog.Options

// prefix names the log's segments: trace-000007.jsonl.
const prefix = "trace-"

// Dir is where a data directory keeps its log.
func Dir(dataDir string) string { return filepath.Join(dataDir, "traces") }

// isRecord is the one rule that tells the line kinds apart: a record's
// first key is "t", an event's "seq".
func isRecord(line []byte) bool { return bytes.HasPrefix(line, []byte(`{"t":`)) }

// Store appends every job's events and records to one segmented log. Safe
// for concurrent use.
type Store struct {
	dir string
	log *seglog.Log
}

// Open creates the directory if needed, announces the segments already
// there as sealed and makes the one after them the active segment.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("tracestore: empty directory")
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 1 << 20
	}
	log, err := seglog.Open(dir, opts, prefix)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Store{dir: dir, log: log}, nil
}

// Bytes reports the total on-disk trace size — the trace_store_bytes
// service metric. Best-effort: an unreadable directory reports zero.
func (s *Store) Bytes() int64 {
	segs, _ := seglog.List(s.dir, prefix)
	var total int64
	for _, seg := range segs {
		total += seg.Size
	}
	return total
}

// checkID rejects job IDs that could not be a file name. IDs are of the
// daemon's own making (job-N) and no longer name a file, but one that
// reaches the store from outside is still refused rather than recorded.
func checkID(jobID string) error {
	if jobID == "" || strings.ContainsAny(jobID, `/\`) || strings.Contains(jobID, "..") {
		return fmt.Errorf("tracestore: invalid job ID %q", jobID)
	}
	return nil
}

// AppendRecord writes one record line — a JSON object whose first key is
// "t", without its newline — to the active segment, fsynced before
// AppendRecord returns if sync is set. Otherwise it is as Append.
func (s *Store) AppendRecord(line []byte, sync bool) error {
	if !isRecord(line) {
		return fmt.Errorf("tracestore: not a record line: %.40s", line)
	}
	if _, err := s.log.Append(append(line, '\n'), sync); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}

// Append encodes one event and appends it as AppendEntry does.
func (s *Store) Append(ev events.Event) error {
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("tracestore: encoding event: %w", err)
	}
	return s.AppendEntry(events.Entry{Event: ev, Line: append(line, '\n')})
}

// AppendEntry writes one event's line, as the hub encoded it, to the
// active segment: the bytes are written as they are, newline included. A
// terminal event is fsynced before AppendEntry returns; an append that
// takes the segment past MaxBytes seals it. An entry with no line (the
// event did not encode) writes nothing and is an error. After Close it
// writes nothing and returns an error wrapping seglog.ErrClosed.
func (s *Store) AppendEntry(e events.Entry) error {
	if err := checkID(e.JobID); err != nil {
		return err
	}
	if e.Line == nil {
		return fmt.Errorf("tracestore: event %d of %s did not encode", e.Seq, e.JobID)
	}
	if _, err := s.log.Append(e.Line, e.Terminal); err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}

// Close syncs and closes the active segment, for good: a later Append
// returns seglog.ErrClosed instead of writing, so a runner that outlives
// Shutdown — or a manager a test has "killed" — cannot write beside the
// store's successor. Idempotent.
func (s *Store) Close() error { return s.log.Close() }

// History is one job's event lines of the log, oldest first, as the
// store wrote them: whole, valid JSON, not yet decoded. The lines alias the buffer
// their segment was read into, so one undecoded History keeps its
// segments' bytes alive.
type History [][]byte

// Last decodes the newest line that is an event — its Seq and Terminal
// are all a boot needs of a finished job.
func (h History) Last() (events.Event, bool) {
	for i := len(h) - 1; i >= 0; i-- {
		var ev events.Event
		if json.Unmarshal(h[i], &ev) == nil {
			return ev, true
		}
	}
	return events.Event{}, false
}

// Events decodes the history. A line that is JSON but not an event ends
// it there: the events before that line are returned with the error.
func (h History) Events() ([]events.Event, error) {
	out := make([]events.Event, len(h))
	for i, line := range h {
		if err := json.Unmarshal(line, &out[i]); err != nil {
			return out[:i], fmt.Errorf("tracestore: decoding event: %w", err)
		}
	}
	return out, nil
}

// ReadAll files every event line of the directory's segments under its
// job, in publish order, without decoding it, and hands each record line
// to record, unchecked: its decoder scans it anyway, and Locate names the
// place of one that fails. An event line counts only if it is valid JSON
// (jsonscan.Valid, json.Valid's verdict without its cost) and names its
// job. The lines alias their segment's buffer, and the histories share one
// array of lines, each capped at its own end. A missing directory is
// empty; a missing segment is an error, returned with the lines of the
// segments that are there.
func ReadAll(dir string, record func(line []byte)) (map[string]History, error) {
	index := map[string]int32{} // job ID → the job's number, in order of its first line
	var lines [][]byte
	var owner []int32 // owner[i] is the number of lines[i]'s job
	var lastID []byte // the job of the last event line, numbered last
	var last int32
	err := read(dir, func(line []byte) error {
		if isRecord(line) {
			record(line)
			return nil
		}
		id := lineJob(line)
		if len(id) == 0 || !jsonscan.Valid(line) {
			return seglog.SkipSegment
		}
		if !bytes.Equal(id, lastID) { // a job's events mostly follow each other
			n, ok := index[string(id)]
			if !ok {
				n = int32(len(index))
				index[string(id)] = n
			}
			lastID, last = id, n
		}
		lines = append(lines, line)
		owner = append(owner, last)
		return nil
	})
	// Lay the lines out job by job, each job's in publish order.
	first := make([]int, len(index)+1) // job n's lines are byJob[first[n]:first[n+1]]
	for _, n := range owner {
		first[n+1]++
	}
	for n := range len(index) {
		first[n+1] += first[n]
	}
	byJob := make([][]byte, len(lines))
	filed := slices.Clone(first)
	for i, n := range owner {
		byJob[filed[n]] = lines[i]
		filed[n]++
	}
	out := make(map[string]History, len(index))
	for id, n := range index {
		out[id] = byJob[first[n]:first[n+1]:first[n+1]]
	}
	return out, err
}

// lineJob returns the job ID of a line Append wrote, nil if it has none.
// The marker cannot occur inside a JSON string (its quotes would be
// escaped) and the job field precedes every free-text one, so its first
// occurrence is the field; an ID that needed escaping is decoded. The
// search steps over the marker's rare 'j', not its quote, which starts
// every key.
func lineJob(line []byte) []byte {
	i := -1
	for from := 1; from < len(line); {
		j := bytes.IndexByte(line[from:], jobMarker[1])
		if j < 0 {
			return nil
		}
		if j += from; line[j-1] == '"' && bytes.HasPrefix(line[j:], jobMarker[1:]) {
			i = j - 1
			break
		}
		from = j + 1
	}
	if i < 0 {
		return nil
	}
	id := line[i+len(jobMarker):]
	if end := bytes.IndexByte(id, '"'); end >= 0 && bytes.IndexByte(id[:end], '\\') < 0 {
		return id[:end]
	}
	var v struct {
		Job string `json:"job"`
	}
	_ = json.Unmarshal(line, &v) // a line that is not JSON has no job
	return []byte(v.Job)
}

var jobMarker = []byte(`"job":"`)

// Read returns one job's events in publish order without a Store — the
// post-mortem path (a crashed daemon's traces can be inspected without
// opening the store for writing). It scans the whole log; only event
// lines that mention the job are decoded. A job the log never saw is an empty
// trace.
func Read(dir, jobID string) ([]events.Event, error) {
	if err := checkID(jobID); err != nil {
		return nil, err
	}
	id, _ := json.Marshal(jobID) // a string always encodes
	filter := append([]byte(`"job":`), id...)
	var out []events.Event
	err := read(dir, func(line []byte) error {
		if isRecord(line) || !bytes.Contains(line, filter) {
			return nil
		}
		var ev events.Event
		if json.Unmarshal(line, &ev) != nil {
			return seglog.SkipSegment
		}
		if ev.JobID == jobID {
			out = append(out, ev)
		}
		return nil
	})
	return out, err
}

// Locate returns err, the failure of a line of the log that ReadAll handed
// out, as a failure of the first line equal to it: naming its file and
// its number there, as Read names a line. err alone if no line is.
func Locate(dir string, line []byte, err error) error {
	found := read(dir, func(l []byte) error {
		if bytes.Equal(l, line) {
			return err
		}
		return nil
	})
	if errors.Is(found, err) {
		return found
	}
	return err
}

// read hands fn the lines of the directory's segments as seglog.Read
// does.
func read(dir string, fn func(line []byte) error) error {
	segs, err := seglog.List(dir, prefix)
	if err == nil {
		err = seglog.Read(dir, segs, fn)
	}
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}
