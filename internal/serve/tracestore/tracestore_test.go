package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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
	all, err := ReadAll(dir)
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

// TestTornTailTolerated: a trace ending in half a record (crash
// mid-append) reads back as everything before the tear.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := s.Append(point(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":4,"type":"curve_po`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := Read(dir, "job-1")
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(got) != 3 || got[2].Seq != 3 {
		t.Fatalf("read %d events past the tear, want the 3 whole ones", len(got))
	}
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
// re-tallies the on-disk size and leaves the previous life's segment as it
// found it.
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

// TestOpenRefusesPerJobLayout: a traces directory written by the per-job
// layout is refused by name, with what to do about it, instead of booting
// with silently empty traces; so are the readers.
func TestOpenRefusesPerJobLayout(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"job-2.trace.jsonl", "job-1.trace.jsonl"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := Open(dir, Options{})
	if err == nil {
		t.Fatal("Open accepted a directory of per-job trace files")
	}
	for _, want := range []string{filepath.Join(dir, "job-1.trace.jsonl"), "move", "journal"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q does not mention %q", err, want)
		}
	}
	if _, err := ReadAll(dir); err == nil {
		t.Error("ReadAll accepted a directory of per-job trace files")
	}
	if names := dirNames(t, dir); len(names) != 2 {
		t.Errorf("the refused directory was touched: %v", names)
	}
}

// TestCrashReopenLosesNothingBehindTear: a segment cut mid-line (the
// kill -9 signature), a reopen and new appends — every whole event before
// the tear and every event after the reopen reads back, per job in
// sequence order. Nothing is appended behind the tear, where a reader
// would never find it.
func TestCrashReopenLosesNothingBehindTear(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	other := func(i int) events.Event {
		ev := point(i)
		ev.JobID = "job-2"
		return ev
	}
	for i := 1; i <= 3; i++ {
		for _, ev := range []events.Event{point(i), other(i)} {
			if err := s1.Append(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The crash: s1 is abandoned and its last line (job-2's third event)
	// only half reached the disk.
	path := filepath.Join(dir, segmentName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(len(raw)-20)); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Append(other(3)); err != nil { // the hub re-issues the lost sequence number
		t.Fatal(err)
	}
	for _, ev := range []events.Event{point(4), terminalEvent(5), other(4)} {
		if err := s2.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]int{"job-1": 5, "job-2": 4} {
		one, err := Read(dir, id)
		if err != nil {
			t.Fatal(err)
		}
		filed, err := all[id].Events()
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(one)
		b, _ := json.Marshal(filed)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: Read and ReadAll disagree:\n %s\n %s", id, a, b)
		}
		if len(one) != want {
			t.Fatalf("%s: %d events read back, want %d", id, len(one), want)
		}
		for i, ev := range one {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("%s: seq %d at position %d", id, ev.Seq, i)
			}
		}
	}
	if last, ok := all["job-1"].Last(); !ok || last.Seq != 5 || !last.Terminal {
		t.Fatal("the terminal event written after the reopen was lost")
	}
	if s2.Bytes() != diskBytes(t, dir) {
		t.Fatalf("Bytes() = %d, the directory holds %d", s2.Bytes(), diskBytes(t, dir))
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

	all, err := ReadAll(dir)
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

// TestRotationConcurrentAppends: eight goroutines, eight jobs each,
// through one store whose segments hold 4 KiB. Per job every sequence
// number reads back exactly once and in order across the segments; every
// sealed segment is announced by exactly one OnChange(name, true), after
// which it is neither announced nor written again; Bytes() is what the
// directory holds.
func TestRotationConcurrentAppends(t *testing.T) {
	const (
		writers = 8
		jobsPer = 8
		perJob  = 40
	)
	dir := t.TempDir()
	sealedSize := map[string]int64{} // written under the store's lock
	opts := Options{MaxBytes: 4 << 10, OnChange: func(name string, sealed bool) {
		if _, again := sealedSize[name]; again {
			t.Errorf("%s announced (sealed=%v) after it was sealed", name, sealed)
		}
		if sealed {
			st, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Errorf("sealed segment: %v", err)
				return
			}
			sealedSize[name] = st.Size()
		}
	}}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Round-robin over the goroutine's own jobs: each job's events
			// reach the store in sequence order, as the hub delivers them.
			for seq := 1; seq <= perJob; seq++ {
				for j := 0; j < jobsPer; j++ {
					ev := point(seq)
					if seq == perJob {
						ev = terminalEvent(seq)
					}
					ev.JobID = fmt.Sprintf("job-%d", w*jobsPer+j+1)
					if err := s.Append(ev); err != nil {
						t.Errorf("append: %v", err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	all, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != writers*jobsPer {
		t.Fatalf("%d jobs read back, want %d", len(all), writers*jobsPer)
	}
	for id, lines := range all {
		evs, err := lines.Events()
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) != perJob {
			t.Fatalf("%s: %d events, want %d", id, len(evs), perJob)
		}
		for i, ev := range evs {
			if ev.Seq != uint64(i+1) {
				t.Fatalf("%s: seq %d at position %d", id, ev.Seq, i)
			}
		}
	}
	one, err := Read(dir, "job-1") // not job-10 … job-19
	if err != nil || len(one) != perJob {
		t.Fatalf("Read(job-1) = %d events, %v; want %d", len(one), err, perJob)
	}
	names := dirNames(t, dir)
	if len(sealedSize) < 10 || len(names)-len(sealedSize) > 1 {
		t.Fatalf("%d segments on disk, %d sealed: want many, and at most the last one unsealed", len(names), len(sealedSize))
	}
	for name, size := range sealedSize {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() != size {
			t.Errorf("%s was %d bytes when sealed, now %v, %v", name, size, st.Size(), err)
		}
		if size < opts.MaxBytes {
			t.Errorf("%s sealed at %d bytes, below the %d-byte segment size", name, size, opts.MaxBytes)
		}
	}
	if s.Bytes() != diskBytes(t, dir) {
		t.Fatalf("Bytes() = %d, the directory holds %d", s.Bytes(), diskBytes(t, dir))
	}
}
