package tracestore

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
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
// and the terminal event closes the job's descriptor.
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
	if s.jobs["job-1"].f != nil {
		t.Fatal("terminal event left the job file open")
	}
	got, err := s.ReadJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip mismatch:\n got %s\nwant %s", a, b)
	}
	// The package-level reader (post-mortem path) agrees.
	got2, err := Read(dir, "job-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != len(want) {
		t.Fatalf("Read returned %d events, want %d", len(got2), len(want))
	}
	if s.Bytes() <= 0 {
		t.Fatal("Bytes() not accounted")
	}
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
	path := filepath.Join(dir, "job-1.trace.jsonl")
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

// TestMissingTraceIsEmpty: a job with no file is an empty trace, not an
// error; a bad job ID is rejected.
func TestMissingTraceIsEmpty(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	evs, err := s.ReadJob("job-404")
	if err != nil || evs != nil {
		t.Fatalf("missing trace: got %v, %v; want nil, nil", evs, err)
	}
	if _, err := Read(dir, "../escape"); err == nil {
		t.Fatal("path-traversal job ID accepted")
	}
	if err := s.Append(events.Event{JobID: "a/b"}); err == nil {
		t.Fatal("slash job ID accepted")
	}
}

// TestCompactionDropsObservationalKeepsCurve: crossing MaxBytes rewrites
// the file keeping every curve point and status transition, dropping
// retries/deadlines/failure charges, and the rewrite is atomic (no temp
// file survives, appends continue on the compacted file).
func TestCompactionDropsObservationalKeepsCurve(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	seq := 0
	next := func(ev events.Event) events.Event {
		seq++
		ev.Seq = uint64(seq)
		ev.JobID = "job-1"
		return ev
	}
	var curve []uint64
	// Interleave curve points with observational noise until well past
	// the threshold.
	for s.Bytes() < 8<<10 {
		ev := next(point(seq + 1))
		curve = append(curve, ev.Seq)
		if err := s.Append(ev); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			noise := next(events.Event{Type: events.TypeRetry, Attempt: 1, Error: "injected: transient failure with a long message to pad the line"})
			if err := s.Append(noise); err != nil {
				t.Fatal(err)
			}
		}
	}
	fin := next(events.Event{Type: events.TypeStatus, Status: "done", Terminal: true})
	if err := s.Append(fin); err != nil {
		t.Fatal(err)
	}
	got, err := s.ReadJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	var gotCurve []uint64
	noiseSurvived := 0
	for _, ev := range got {
		switch ev.Type {
		case events.TypeCurvePoint:
			gotCurve = append(gotCurve, ev.Seq)
		case events.TypeStatus:
		default:
			// Observational events appended since the last compaction may
			// survive; compaction must have shed the bulk of them.
			noiseSurvived++
		}
	}
	if len(gotCurve) != len(curve) {
		t.Fatalf("compaction lost curve points: %d of %d survive", len(gotCurve), len(curve))
	}
	for i := range curve {
		if gotCurve[i] != curve[i] {
			t.Fatalf("curve seq %d became %d after compaction", curve[i], gotCurve[i])
		}
	}
	if got[len(got)-1].Seq != fin.Seq || !got[len(got)-1].Terminal {
		t.Fatal("terminal event missing after compaction")
	}
	if noiseAppended := 3 * len(curve); noiseSurvived >= noiseAppended/2 {
		t.Fatalf("%d of %d observational events survive: compaction never shed them", noiseSurvived, noiseAppended)
	}
	st, err := os.Stat(filepath.Join(dir, "job-1.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-1.trace.jsonl"+tmpSuffix)); !os.IsNotExist(err) {
		t.Fatal("compaction left its temp file behind")
	}
	if s.Bytes() != st.Size() {
		t.Fatalf("Bytes() = %d, file is %d", s.Bytes(), st.Size())
	}
}

// TestCompactionConcurrentWithAppends: many goroutines appending to the
// same job while compaction fires repeatedly must lose nothing durable
// and keep the file readable at every moment.
func TestCompactionConcurrentWithAppends(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 4
		perW    = 100
	)
	var seqMu sync.Mutex
	seq := uint64(0)
	nextSeq := func() uint64 {
		seqMu.Lock()
		defer seqMu.Unlock()
		seq++
		return seq
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// A concurrent reader: the file must decode cleanly at all times.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.ReadJob("job-1"); err != nil {
				t.Errorf("concurrent read failed: %v", err)
				return
			}
		}
	}()
	var appendWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		appendWG.Add(1)
		go func() {
			defer appendWG.Done()
			for i := 0; i < perW; i++ {
				n := nextSeq()
				ev := events.Event{Seq: n, Type: events.TypeCurvePoint, JobID: "job-1",
					Point: &trace.Point{Evaluations: int(n), BestScore: float64(n)}}
				if n%3 == 0 {
					ev = events.Event{Seq: n, Type: events.TypeRetry, JobID: "job-1", Attempt: 1,
						Error: "injected: padding padding padding padding padding padding"}
				}
				if err := s.Append(ev); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	appendWG.Wait()
	close(stop)
	wg.Wait()
	got, err := s.ReadJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	// Every curve point ever appended must survive exactly once (only
	// observational events are shed). Writers race the job lock, so the
	// on-disk order is lock-win order, not global seq order — the real
	// daemon publishes through the hub, which serializes per job.
	seen := map[uint64]int{}
	for _, ev := range got {
		if ev.Type == events.TypeCurvePoint {
			seen[ev.Seq]++
		}
	}
	for n := uint64(1); n <= writers*perW; n++ {
		if n%3 == 0 {
			continue
		}
		if seen[n] != 1 {
			t.Fatalf("curve point seq %d present %d times, want exactly once", n, seen[n])
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReopenReplaysByteIdentically: a new store over the same directory
// (the restart path) serves the pre-crash events byte-identically and
// re-tallies the on-disk size; a stale temp file from a crashed
// compaction is swept without touching the real trace.
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
	before, err := s1.ReadJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := s1.Bytes()
	// Abandon s1 without Close — the crash. Leave a half-written temp
	// file as a crashed compaction would.
	if err := os.WriteFile(filepath.Join(dir, "job-1.trace.jsonl"+tmpSuffix), []byte(`{"seq":1`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job-1.trace.jsonl"+tmpSuffix)); !os.IsNotExist(err) {
		t.Fatal("stale temp file survived Open")
	}
	after, err := s2.ReadJob("job-1")
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
	if ids, err := s2.Jobs(); err != nil || len(ids) != 1 || ids[0] != "job-1" {
		t.Fatalf("Jobs() = %v, %v; want [job-1]", ids, err)
	}
}

// TestCloseIsTerminal: once the store is closed an Append must not reopen
// the job's file — for a job that had one open, and for one that never
// did — so a writer that outlives Close cannot write beside whoever
// opened the directory next. Reads keep working.
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
	before, err := os.ReadFile(filepath.Join(dir, "job-1.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	late := point(2)
	other := point(1)
	other.JobID = "job-2"
	for _, ev := range []events.Event{late, other} {
		if err := s.Append(ev); !errors.Is(err, ErrClosed) {
			t.Fatalf("Append(%s) after Close = %v, want ErrClosed", ev.JobID, err)
		}
	}
	after, _ := os.ReadFile(filepath.Join(dir, "job-1.trace.jsonl"))
	if !bytes.Equal(before, after) {
		t.Fatalf("a closed store wrote %d bytes", len(after)-len(before))
	}
	if _, err := os.Stat(filepath.Join(dir, "job-2.trace.jsonl")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a closed store created a trace file: %v", err)
	}
	if evs, err := s.ReadJob("job-1"); err != nil || len(evs) != 1 {
		t.Fatalf("ReadJob after Close = %d events, %v", len(evs), err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
