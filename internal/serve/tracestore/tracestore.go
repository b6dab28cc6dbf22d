// Package tracestore persists bhpod's job telemetry durably: one
// append-only, size-rotated JSONL log shared by every job of a data
// directory (trace-000007.jsonl under the traces directory), each line
// one events.Event — which names its job — in publish order. It sits
// behind the event hub as its sink, so what is on disk is always a prefix
// of what live subscribers saw, and it is what lets GET /jobs/{id}/trace
// serve a job's full event history after the process that ran the job is
// gone — including jobs the journal replays as interrupted.
//
// Durability follows the journal's discipline: ordinary events ride the
// OS page cache (losing the tail of a live job's trace on crash only
// shortens its curve, never corrupts it), terminal events are fsynced
// before Append returns. A finished job creates, closes and renames
// nothing: its events are lines in the segment every other job writes.
//
// The segments are written by seglog, the writer the journal shares: a
// segment that passes MaxBytes is fsynced, closed and announced as sealed
// and never written again, and neither is a segment a previous process
// left behind — every Open starts a new one, created at its first event,
// so nothing is ever appended behind a torn line (the signature of a
// crash mid-append), and a write that fails part-way is cut back off
// before the next event is written. A reader ends a segment at a line
// that is not whole — no newline, not JSON, no job — and goes on to the
// next.
//
// There are two readers. Read decodes one job's events, for post-mortems
// and tests. ReadAll is the boot path and decodes nothing: it files every
// line under its job as bytes (History), so a restart costs one
// validating scan of the log, and an event is decoded when its job's
// history is first asked for.
package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve/seglog"
)

// Options tunes a Store: seglog's, except that MaxBytes 0 selects 1 MiB.
// OnChange is the shipper's replication hook.
type Options = seglog.Options

// Store appends every job's events to one segmented log. Safe for
// concurrent use.
type Store struct {
	log   *seglog.Log
	bytes atomic.Int64 // on-disk bytes across all segments
}

func segmentName(seq int) string { return seglog.Name("trace-", seq) }

// segmentSeq extracts the sequence from a segment file name.
func segmentSeq(name string) (int, bool) {
	var seq int
	if n, err := fmt.Sscanf(name, "trace-%d.jsonl", &seq); n != 1 || err != nil || name != segmentName(seq) {
		return 0, false
	}
	return seq, true
}

// segments lists the sequences of the directory's segment files in
// order, with their total size. A missing directory holds none; one that
// still holds the per-job files of the previous layout is refused.
func segments(dir string) (seqs []int, total int64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("tracestore: %w", err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".trace.jsonl") {
			return nil, 0, fmt.Errorf("tracestore: %s is a per-job trace file of an older bhpod, which this one does not read: "+
				"move the *.trace.jsonl files out of %s (the journal still restores every finished job's result and curve)",
				filepath.Join(dir, e.Name()), dir)
		}
		seq, ok := segmentSeq(e.Name())
		if !ok || e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, total, nil
}

// Open creates the directory if needed, tallies the segments already
// there and makes the one after them the active segment.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("tracestore: empty directory")
	}
	if opts.MaxBytes == 0 {
		opts.MaxBytes = 1 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	seqs, total, err := segments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if n := len(seqs); n > 0 {
		next = seqs[n-1] + 1
	}
	s := &Store{log: seglog.Open(dir, "trace-", next, opts)}
	s.bytes.Store(total)
	return s, nil
}

// Bytes reports the total on-disk trace size — the trace_store_bytes
// service metric.
func (s *Store) Bytes() int64 { return s.bytes.Load() }

// ActiveSegment returns the file name of the segment that receives
// appends.
func (s *Store) ActiveSegment() string { return s.log.Active() }

// ErrClosed is what Append's error wraps once the store has been closed.
var ErrClosed = seglog.ErrClosed

// checkID rejects job IDs that could not be a file name. IDs are of the
// daemon's own making (job-N) and no longer name a file, but one that
// reaches the store from outside is still refused rather than recorded.
func checkID(jobID string) error {
	if jobID == "" || strings.ContainsAny(jobID, `/\`) || strings.Contains(jobID, "..") {
		return fmt.Errorf("tracestore: invalid job ID %q", jobID)
	}
	return nil
}

// Append writes one event as a JSON line to the active segment. A
// terminal event is fsynced before Append returns; an append that takes
// the segment past MaxBytes seals it. After Close it writes nothing and
// returns ErrClosed.
func (s *Store) Append(ev events.Event) error {
	if err := checkID(ev.JobID); err != nil {
		return err
	}
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("tracestore: encoding event: %w", err)
	}
	n, err := s.log.Append(append(line, '\n'), ev.Terminal)
	s.bytes.Add(int64(n))
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}

// Close syncs and closes the active segment, for good: a later Append
// returns ErrClosed instead of writing, so a runner that outlives
// Shutdown — or a manager a test has "killed" — cannot write beside the
// store's successor. Idempotent.
func (s *Store) Close() error { return s.log.Close() }

// History is one job's lines of the log, oldest first, as the store wrote
// them: whole, valid JSON, not yet decoded. The lines alias the buffer
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

// ReadAll files every line of the directory's segments under its job, in
// publish order, without decoding it — how a booting manager re-arms its
// event hub at the cost of one validating pass over the bytes. A line
// counts only if it is valid JSON and names its job. A missing directory
// is empty.
func ReadAll(dir string) (map[string]History, error) {
	out := map[string]History{}
	err := scan(dir, func(line []byte) bool {
		id := lineJob(line)
		if len(id) == 0 || !json.Valid(line) {
			return false
		}
		out[string(id)] = append(out[string(id)], line)
		return true
	})
	return out, err
}

// lineJob returns the job ID of a line Append wrote, nil if it has none.
// The marker cannot occur inside a JSON string (its quotes would be
// escaped) and the job field precedes every free-text one, so its first
// occurrence is the field; an ID that needed escaping is decoded.
func lineJob(line []byte) []byte {
	i := bytes.Index(line, jobMarker)
	if i < 0 {
		return nil
	}
	id := line[i+len(jobMarker):]
	if end := bytes.IndexAny(id, `"\`); end >= 0 && id[end] == '"' {
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
// opening the store for writing). It scans the whole log; only lines
// that mention the job are decoded. A job the log never saw is an empty
// trace.
func Read(dir, jobID string) ([]events.Event, error) {
	if err := checkID(jobID); err != nil {
		return nil, err
	}
	id, _ := json.Marshal(jobID) // a string always encodes
	filter := append([]byte(`"job":`), id...)
	var out []events.Event
	err := scan(dir, func(line []byte) bool {
		if !bytes.Contains(line, filter) {
			return true
		}
		var ev events.Event
		if json.Unmarshal(line, &ev) != nil {
			return false
		}
		if ev.JobID == jobID {
			out = append(out, ev)
		}
		return true
	})
	return out, err
}

// scan hands fn the whole lines of the directory's segments, in sequence
// order, each segment read in one piece. A segment ends at the first line
// fn refuses or that has no newline — a torn tail, which only a crash
// mid-append leaves and only at the end of a process life's last segment
// — and the pass goes on to the next.
func scan(dir string, fn func(line []byte) bool) error {
	seqs, _, err := segments(dir)
	if err != nil {
		return err
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segmentName(seq)))
		if err != nil {
			return fmt.Errorf("tracestore: %w", err)
		}
		for {
			end := bytes.IndexByte(data, '\n')
			if end < 0 || !fn(data[:end]) {
				break
			}
			data = data[end+1:]
		}
	}
	return nil
}
