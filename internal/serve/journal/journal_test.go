package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"enhancedbhpo/internal/trace"
)

func ptr(f float64) *float64 { return &f }

func sampleCurve() []trace.Point {
	return []trace.Point{
		{Evaluations: 1, CumBudget: 100, CumTime: 12345 * time.Microsecond, BestScore: 0.71},
		{Evaluations: 2, CumBudget: 250, CumTime: 34567 * time.Microsecond, BestScore: 0.83},
	}
}

func TestReplayMergesRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	records := []Record{
		{Type: TypeSubmit, Time: t0, JobID: "job-1", Spec: spec},
		{Type: TypeStatus, Time: t0.Add(time.Second), JobID: "job-1", Status: "running"},
		{Type: TypeSubmit, Time: t0.Add(2 * time.Second), JobID: "job-2", Spec: spec},
		{
			Type: TypeResult, Time: t0.Add(3 * time.Second), JobID: "job-1",
			Status: "done", Evaluations: 2, Curve: sampleCurve(),
			BestConfig: map[string]any{"activation": "relu"},
			BestScore:  ptr(0.83), TestScore: ptr(0.80),
		},
	}
	for _, rec := range records {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	states, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("replayed %d states, want 2", len(states))
	}
	j1, j2 := states[0], states[1]
	if j1.ID != "job-1" || j2.ID != "job-2" {
		t.Fatalf("order: %s, %s", j1.ID, j2.ID)
	}
	if j1.Status != "done" || !j1.Terminal() {
		t.Fatalf("job-1 status %q", j1.Status)
	}
	// An older binary's embedded curve is read for its final budget.
	if j1.Evaluations != 2 || j1.Budget != 250 {
		t.Fatalf("job-1: %d evals, budget %d; want 2 and the curve's last cum_budget, 250", j1.Evaluations, j1.Budget)
	}
	if j1.BestScore == nil || *j1.BestScore != 0.83 || j1.TestScore == nil || *j1.TestScore != 0.80 {
		t.Fatalf("job-1 scores: %+v", j1)
	}
	if !j1.StartedAt.Equal(t0.Add(time.Second)) || !j1.FinishedAt.Equal(t0.Add(3*time.Second)) {
		t.Fatalf("job-1 times: started %v finished %v", j1.StartedAt, j1.FinishedAt)
	}
	if j2.Status != "queued" || j2.Terminal() {
		t.Fatalf("job-2 status %q", j2.Status)
	}
	if string(j2.Spec) != string(spec) {
		t.Fatalf("job-2 spec %s", j2.Spec)
	}
}

// TestReplayKeepsFirstStart: a job that ran, was preempted and ran again
// started when it first ran — as the live job reports it — not at its
// last resume.
func TestReplayKeepsFirstStart(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	records := []Record{
		{Type: TypeSubmit, Time: t0, JobID: "job-1", Spec: json.RawMessage(`{}`)},
		{Type: TypeStatus, Time: t0.Add(time.Second), JobID: "job-1", Status: "running"},
		{Type: TypePreempt, Time: t0.Add(2 * time.Second), JobID: "job-1", Evaluations: 1, Checkpoint: json.RawMessage(`{}`)},
		{Type: TypeStatus, Time: t0.Add(3 * time.Second), JobID: "job-1", Status: "running"},
		{Type: TypeResult, Time: t0.Add(4 * time.Second), JobID: "job-1", Status: "done", Evaluations: 2},
	}
	for _, rec := range records {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	states, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || !states[0].StartedAt.Equal(t0.Add(time.Second)) {
		t.Fatalf("replayed %+v; want job-1 started at %v", states, t0.Add(time.Second))
	}
}

func TestReplayMissingJournal(t *testing.T) {
	states, err := Replay(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 0 {
		t.Fatalf("empty dir replayed %d states", len(states))
	}
}

// TestReplayTornTail simulates a crash mid-append: the last line is
// truncated, and replay must stop cleanly at the last whole record.
func TestReplayTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	if err := w.Append(Record{Type: TypeSubmit, Time: time.Now(), JobID: "job-1", Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segmentName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"result","job":"job-1","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	states, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 1 || states[0].Status != "queued" {
		t.Fatalf("torn tail replay: %+v", states)
	}
}

// TestCompactRoundTrip verifies that compaction preserves the merged
// states exactly and shrinks the log to the minimal record set.
func TestCompactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	spec := json.RawMessage(`{"dataset":"australian","method":"asha"}`)
	// Noisy history: repeated transitions that compaction should fold away.
	for _, rec := range []Record{
		{Type: TypeSubmit, Time: t0, JobID: "job-1", Spec: spec},
		{Type: TypeStatus, Time: t0.Add(time.Second), JobID: "job-1", Status: "running"},
		{Type: TypeResult, Time: t0.Add(2 * time.Second), JobID: "job-1", Status: "cancelled", Reason: "user_cancel", Curve: sampleCurve(), Evaluations: 2},
		{Type: TypeSubmit, Time: t0.Add(3 * time.Second), JobID: "job-2", Spec: spec},
		{Type: TypeStatus, Time: t0.Add(4 * time.Second), JobID: "job-2", Status: "running"},
	} {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compact(dir, before); err != nil {
		t.Fatal(err)
	}
	after, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Fatalf("compaction changed state count: %d -> %d", len(before), len(after))
	}
	for i := range before {
		b, a := before[i], after[i]
		if a.ID != b.ID || a.Status != b.Status || a.Reason != b.Reason ||
			a.Evaluations != b.Evaluations || a.Budget != b.Budget ||
			!a.SubmittedAt.Equal(b.SubmittedAt) || !a.StartedAt.Equal(b.StartedAt) {
			t.Fatalf("state %d changed:\nbefore %+v\nafter  %+v", i, b, a)
		}
	}
	// Appending after compaction keeps working (the writer reopens).
	w2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(Record{Type: TypeResult, Time: t0.Add(5 * time.Second), JobID: "job-2", Status: "done"}); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	final, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if final[1].Status != "done" {
		t.Fatalf("post-compaction append lost: %+v", final[1])
	}
}

// writeSegment handcrafts one complete segment file from records.
func writeSegment(t *testing.T, dir string, seq int, recs ...Record) {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(seq)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestSegmentReplayTornNewest: with a multi-segment journal, a torn tail
// is tolerated only in the newest segment — sealed history replays whole.
func TestSegmentReplayTornNewest(t *testing.T) {
	dir := t.TempDir()
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	writeSegment(t, dir, 1,
		Record{Type: TypeSubmit, Time: t0, JobID: "job-1", Spec: spec},
		Record{Type: TypeResult, Time: t0.Add(time.Second), JobID: "job-1", Status: "done", Evaluations: 3},
	)
	writeSegment(t, dir, 2,
		Record{Type: TypeSubmit, Time: t0.Add(2 * time.Second), JobID: "job-2", Spec: spec},
	)
	f, err := os.OpenFile(filepath.Join(dir, segmentName(2)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"result","job":"job-2","sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	states, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 2 {
		t.Fatalf("replayed %d states, want 2: %+v", len(states), states)
	}
	if states[0].Status != "done" || states[0].Evaluations != 3 {
		t.Fatalf("sealed segment state lost: %+v", states[0])
	}
	if states[1].Status != "queued" {
		t.Fatalf("torn tail not dropped: %+v", states[1])
	}

	// The same tear in a *sealed* segment is corruption, not a torn tail.
	writeSegment(t, dir, 3,
		Record{Type: TypeSubmit, Time: t0.Add(3 * time.Second), JobID: "job-3", Spec: spec},
	)
	if _, err := Replay(dir); err == nil {
		t.Fatal("torn record in a sealed segment replayed without error")
	}
}

// TestReplayMissingMiddleSegment: a gap in the live segment sequence is
// lost data and must fail with an error naming the missing segment.
func TestReplayMissingMiddleSegment(t *testing.T) {
	dir := t.TempDir()
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	now := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	for seq := 1; seq <= 3; seq++ {
		writeSegment(t, dir, seq,
			Record{Type: TypeSubmit, Time: now, JobID: "job-" + segmentName(seq), Spec: spec})
	}
	if _, err := Replay(dir); err != nil {
		t.Fatalf("contiguous segments: %v", err)
	}
	if err := os.Remove(filepath.Join(dir, segmentName(2))); err != nil {
		t.Fatal(err)
	}
	_, err := Replay(dir)
	if err == nil {
		t.Fatal("missing middle segment replayed without error")
	}
	if !strings.Contains(err.Error(), segmentName(2)) {
		t.Fatalf("error %q does not name the missing segment", err)
	}
}

// TestReplayRetriesTransientGap: a gap that heals while Replay is
// retrying (the signature of a concurrent fold racing the scan) must
// replay cleanly instead of reporting lost data.
func TestReplayRetriesTransientGap(t *testing.T) {
	dir := t.TempDir()
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	now := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	for seq := 1; seq <= 3; seq++ {
		writeSegment(t, dir, seq,
			Record{Type: TypeSubmit, Time: now, JobID: "job-" + segmentName(seq), Spec: spec})
	}
	seg2 := filepath.Join(dir, segmentName(2))
	stashed, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(seg2); err != nil {
		t.Fatal(err)
	}
	restored := make(chan struct{})
	go func() {
		defer close(restored)
		time.Sleep(3 * replayRetryDelay)
		if err := os.WriteFile(seg2, stashed, 0o644); err != nil {
			t.Error(err)
		}
	}()
	states, err := Replay(dir)
	<-restored
	if err != nil {
		t.Fatalf("replay did not ride out the transient gap: %v", err)
	}
	if len(states) != 3 {
		t.Fatalf("replayed %d jobs, want 3", len(states))
	}
}

// TestRotationConcurrentAppends hammers a rotating writer from several
// goroutines (run under -race via make check): every job must survive
// rotation + background folds, and the sealed history must land in a
// base file.
func TestRotationConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenOptions(dir, Options{
		MaxBytes: 512,
		OnError:  func(err error) { t.Errorf("fold: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, jobsEach = 4, 40
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	now := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				id := fmt.Sprintf("job-%d-%d", g, i)
				if err := w.Append(Record{Type: TypeSubmit, Time: now, JobID: id, Spec: spec}); err != nil {
					t.Errorf("append submit %s: %v", id, err)
					return
				}
				if err := w.Append(Record{
					Type: TypeResult, Time: now.Add(time.Second), JobID: id,
					Status: "done", Evaluations: 1,
				}); err != nil {
					t.Errorf("append result %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	states, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != writers*jobsEach {
		t.Fatalf("replayed %d states, want %d", len(states), writers*jobsEach)
	}
	for _, st := range states {
		if st.Status != "done" {
			t.Fatalf("job %s lost its result across rotation: %+v", st.ID, st)
		}
	}
	lay, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !lay.hasBase {
		t.Fatal("no fold ever completed: no base file on disk")
	}
	if live := lay.liveSegs(); len(live) > 2 {
		t.Fatalf("folds fell behind: %d live segments (%v)", len(live), live)
	}
	if s := DirStats(dir); s.Segments == 0 || s.Bytes == 0 {
		t.Fatalf("DirStats sees nothing: %+v", s)
	}
}

// TestWriterClosedAppendFails: Close is terminal — an append after it
// fails and writes nothing, neither into the closed segment nor a new one.
func TestWriterClosedAppendFails(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(Record{Type: TypeSubmit, JobID: "job-1"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	before := dirFiles(t, dir)
	if err := w.Append(Record{Type: TypeSubmit, JobID: "job-2"}); err == nil {
		t.Fatal("append on closed writer succeeded")
	}
	if after := dirFiles(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("a closed writer wrote: %v became %v", before, after)
	}
}
