package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve/seglog"
	"enhancedbhpo/internal/trace"
)

func point(i int) events.Event {
	return events.Event{
		Seq:   uint64(i),
		Type:  events.TypeCurvePoint,
		Time:  time.Unix(int64(i), int64(i)).UTC(),
		JobID: "job-1",
		Point: &trace.Point{Evaluations: i, CumBudget: 10 * i, CumTime: time.Duration(i) * time.Second, BestScore: float64(i) / 100},
	}
}

func terminalEvent(seq int) events.Event {
	return events.Event{Seq: uint64(seq), Type: events.TypeStatus, Time: time.Unix(int64(seq), 0).UTC(), JobID: "job-1", Status: "done", Terminal: true}
}

// TestAppendReadRoundTrip: events come back in order, bit-identical,
// and the terminal event creates no file of the job's own.
func TestAppendReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []events.Event
	for i := 1; i <= 5; i++ {
		ev := point(i)
		want = append(want, ev)
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	fin := terminalEvent(6)
	want = append(want, fin)
	if err := s.Append(fin); err != nil {
		t.Fatal(err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "trace-000001.jsonl" {
		t.Fatalf("a finished job left %v, want the one shared segment", names)
	}
	got, err := Read(dir, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", a, b)
	}
	// The one-pass reader (the boot path) agrees.
	all, err := ReadAll(dir, skipRecord)
	if err != nil {
		t.Fatal(err)
	}
	filed, err := all["job-1"].Events()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || len(filed) != len(want) {
		t.Fatalf("ReadAll returned %d jobs, %d events for job-1; want 1, %d", len(all), len(filed), len(want))
	}
	if c, _ := json.Marshal(filed); !bytes.Equal(c, b) {
		t.Fatalf("ReadAll's decode mismatch:\n got %s\nwant %s", c, b)
	}
	if last, ok := all["job-1"].Last(); !ok || last.Seq != fin.Seq || !last.Terminal {
		t.Fatalf("Last() = %+v, %v; want the terminal event", last, ok)
	}
	if s.Bytes() <= 0 {
		t.Fatal("Bytes() not accounted")
	}
}

// dirNames lists a directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestMissingTraceIsEmpty: a job the log never saw is an empty trace, not
// an error — in an empty directory, in a missing one and beside other
// jobs' events; a bad job ID is rejected.
func TestMissingTraceIsEmpty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// job-4040 is not job-404: the last pass reads past its events.
	other := point(1)
	other.JobID = "job-4040"
	for i, d := range []string{dir, filepath.Join(dir, "never-made"), dir} {
		if i == 2 {
			if err := s.Append(other); err != nil {
				t.Fatal(err)
			}
		}
		evs, err := Read(d, "job-404")
		if err != nil || evs != nil {
			t.Fatalf("missing trace in %s: got %v, %v; want nil, nil", d, evs, err)
		}
	}
	if _, err := Read(dir, "../escape"); err == nil {
		t.Fatal("path-traversal job ID accepted")
	}
	if err := s.Append(events.Event{JobID: "a/b"}); err == nil {
		t.Fatal("slash job ID accepted")
	}
}

// TestReopenReplaysByteIdentically: a new store over the same directory
// (the restart path) serves the pre-crash events byte-identically,
// re-tallies the on-disk size, leaves the previous life's segment as it
// found it, and counts in Bytes() what the directory holds once it has
// appended too.
func TestReopenReplaysByteIdentically(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 7; i++ {
		if err := s1.Append(point(i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := Read(dir, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := s1.Bytes()
	onDisk, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Abandon s1 without Close — the crash.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Read(dir, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(before)
	b, _ := json.Marshal(after)
	if !bytes.Equal(a, b) {
		t.Fatalf("restart replay differs:\n before %s\n after  %s", a, b)
	}
	if s2.Bytes() != wantBytes {
		t.Fatalf("reopened Bytes() = %d, want %d", s2.Bytes(), wantBytes)
	}
	if err := s2.Append(point(8)); err != nil {
		t.Fatal(err)
	}
	if now, _ := os.ReadFile(filepath.Join(dir, segmentName(1))); !bytes.Equal(now, onDisk) {
		t.Fatal("the reopened store wrote into the previous life's segment")
	}
	if evs, err := Read(dir, "job-1"); err != nil || len(evs) != 8 || evs[7].Seq != 8 {
		t.Fatalf("after the reopen's append: %d events, %v; want 8", len(evs), err)
	}
	if s2.Bytes() != diskBytes(t, dir) {
		t.Fatalf("Bytes() = %d, the directory holds %d", s2.Bytes(), diskBytes(t, dir))
	}
}

// TestCloseIsTerminal: once the store is closed an Append must not write
// — for a job the log already knows, and for one it does not — so a
// writer that outlives Close cannot write beside whoever opened the
// directory next. Reads keep working.
func TestCloseIsTerminal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(point(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	late := point(2)
	other := point(1)
	other.JobID = "job-2"
	for _, ev := range []events.Event{late, other} {
		if err := s.Append(ev); !errors.Is(err, seglog.ErrClosed) {
			t.Fatalf("Append(%s) after Close = %v, want seglog.ErrClosed", ev.JobID, err)
		}
	}
	after, _ := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if !bytes.Equal(before, after) {
		t.Fatalf("a closed store wrote %d bytes", len(after)-len(before))
	}
	if names := dirNames(t, dir); len(names) != 1 {
		t.Fatalf("a closed store created a file: %v", names)
	}
	if evs, err := Read(dir, "job-1"); err != nil || len(evs) != 1 {
		t.Fatalf("Read after Close = %d events, %v", len(evs), err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// diskBytes sums the sizes of a directory's files.
func diskBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var total int64
	for _, name := range dirNames(t, dir) {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

// writeSegment writes a segment file by hand: events as Append encodes
// them, strings verbatim — the damage.
func writeSegment(t *testing.T, dir string, seq int, lines ...any) {
	t.Helper()
	var buf bytes.Buffer
	for _, l := range lines {
		if raw, ok := l.(string); ok {
			buf.WriteString(raw)
			continue
		}
		line, err := json.Marshal(l)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// seqsOf decodes a filed history and returns its sequence numbers.
func seqsOf(t *testing.T, h History) []uint64 {
	t.Helper()
	evs, err := h.Events()
	if err != nil {
		t.Fatal(err)
	}
	var out []uint64
	for _, ev := range evs {
		out = append(out, ev.Seq)
	}
	return out
}

// TestReadAllDamagedLog: what the filing pass — which decodes nothing —
// makes of a damaged log. A tear or a line that is not JSON ends its
// segment only; so does a line that names no job; a line that is JSON but
// not an event ends, when it is decoded, the history of the one job it
// names; an ID that JSON escapes is still filed under the right job.
func TestReadAllDamagedLog(t *testing.T) {
	forJob := func(id string, seq int) events.Event {
		ev := point(seq)
		ev.JobID = id
		return ev
	}
	dir := t.TempDir()
	// Segment 1 is cut mid-line: its whole lines count, the tear does not.
	writeSegment(t, dir, 1, forJob("a", 1), forJob("b", 1), forJob("a", 2), `{"seq":3,"type":"curve_point","job":"a","poi`)
	// Segment 2 holds a whole line that is not JSON: the lines behind it
	// are lost with it, the next segment is not.
	writeSegment(t, dir, 2, forJob("a", 3), "{\"seq\":2,\"job\":\"b\",oops}\n", forJob("b", 3))
	// Segment 3: a line without a job ends the segment.
	writeSegment(t, dir, 3, forJob("b", 4), "{\"seq\":9,\"type\":\"status\"}\n", forJob("a", 9))
	// Segment 4: JSON, a job, not an event. Filed; found when decoded.
	writeSegment(t, dir, 4, forJob("a", 4), forJob("c", 1), "{\"seq\":\"x\",\"job\":\"c\"}\n", forJob("c", 3), forJob("a", 5),
		forJob(`q"<uote`, 1), forJob("b", 5))

	all, err := ReadAll(dir, skipRecord)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string][]uint64{"a": {1, 2, 3, 4, 5}, "b": {1, 4, 5}, `q"<uote`: {1}} {
		if got := seqsOf(t, all[id]); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("job %q filed as seqs %v, want %v", id, got, want)
		}
	}
	// Read sees a job's own lines only, so other jobs' damage is not its
	// business; the escaped ID is.
	if one, err := Read(dir, `q"<uote`); err != nil || len(one) != 1 {
		t.Errorf("Read of the escaped ID = %d events, %v; want 1", len(one), err)
	}
	if len(all) != 4 {
		t.Errorf("%d jobs filed, want a, b, c and the quoted one", len(all))
	}
	evs, err := all["c"].Events()
	if err == nil || len(evs) != 1 || evs[0].Seq != 1 {
		t.Errorf("job c decodes to %d events, error %v; want the one event before the bad line and an error", len(evs), err)
	}
	if last, ok := all["c"].Last(); !ok || last.Seq != 3 {
		t.Errorf("job c's newest decodable event is %+v, %v; want seq 3", last, ok)
	}
	if last, ok := all["nobody"].Last(); ok || len(seqsOf(t, all["nobody"])) != 0 {
		t.Errorf("a job the log never saw has a newest event: %+v", last)
	}
}

// skipRecord is a ReadAll record callback that keeps nothing.
func skipRecord([]byte) {}

// TestRecordLinesAreNotEvents: a log holding job records between its
// events. No event reader sees a record — ReadAll does not file one, Read
// does not decode one, a History holds none — and ReadAll hands out the
// records alone, in log order. A segment missing from the log is an error
// naming it, whatever came before it: after a record line, or after event
// lines alone. Locate names the file and line of a record that failed its
// decoder. A line that is not a record is not appended as one.
func TestRecordLinesAreNotEvents(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	submit := []byte(`{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1"}`)
	result := []byte(`{"t":"result","time":"2026-08-05T10:00:09Z","job":"job-1","status":"done","evaluations":2}`)
	if err := s.AppendRecord(submit, false); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if err := s.Append(point(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendRecord(result, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(terminalEvent(3)); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendRecord([]byte(`{"seq":4,"job":"job-1"}`), true); err == nil {
		t.Error("an event line was appended as a record")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A third segment, after a missing second, holds a later record.
	later := `{"t":"submit","time":"2026-08-05T10:01:00Z","job":"job-2"}`
	writeSegment(t, dir, 3, later+"\n", forJob("job-2", 1))

	var recs []string
	all, err := ReadAll(dir, func(line []byte) { recs = append(recs, string(line)) })
	if err == nil || !strings.Contains(err.Error(), "missing segment trace-000002.jsonl") {
		t.Errorf("ReadAll reported the segment missing after a record as %v", err)
	}
	if want := []string{string(submit), string(result), later}; fmt.Sprint(recs) != fmt.Sprint(want) {
		t.Errorf("ReadAll handed out the records\n %q\nwant\n %q", recs, want)
	}
	if got := seqsOf(t, all["job-1"]); fmt.Sprint(got) != "[1 2 3]" {
		t.Errorf("job-1 filed as seqs %v, want its three events", got)
	}
	if last, ok := all["job-1"].Last(); !ok || last.Seq != 3 || !last.Terminal {
		t.Errorf("job-1's newest event is %+v, %v; want the terminal one", last, ok)
	}
	if got := seqsOf(t, all["job-2"]); fmt.Sprint(got) != "[1]" {
		t.Errorf("job-2 filed as seqs %v, want [1]", got)
	}
	evs, _ := Read(dir, "job-1")
	if len(evs) != 3 || evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Errorf("Read job-1: %+v, want its three events", evs)
	}

	// The same gap with events alone before it is the same error.
	eventsFirst := t.TempDir()
	writeSegment(t, eventsFirst, 1, point(1))
	writeSegment(t, eventsFirst, 3, later+"\n", forJob("job-2", 1))
	if _, gap := ReadAll(eventsFirst, skipRecord); gap == nil || err == nil || gap.Error() != err.Error() {
		t.Errorf("a gap only events came before read as %v, want %v", gap, err)
	}

	bad := errors.New("bad record")
	if err := Locate(dir, []byte(later), bad); !errors.Is(err, bad) || !strings.Contains(err.Error(), "trace-000003.jsonl line 1") {
		t.Errorf("the later record located as %v", err)
	}
	if err := Locate(dir, []byte(`{"t":"nowhere"}`), bad); err != bad {
		t.Errorf("a line the log does not hold located as %v", err)
	}
}

// forJob is event seq of job id as a log line's value.
func forJob(id string, seq int) events.Event {
	ev := point(seq)
	ev.JobID = id
	return ev
}
