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

	"enhancedbhpo/internal/serve/seglog"
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
	w, err := OpenOptions(dir, Options{})
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
	w, err := OpenOptions(dir, Options{})
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
	w, err := OpenOptions(dir, Options{})
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

// TestSegmentReplayTornNewest: a torn tail ends its segment, the newest
// one's as an earlier life's, and the segments after it replay whole.
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

	// A later life's segment leaves the tear where it is, ending an earlier
	// segment now: the same rule.
	writeSegment(t, dir, 3,
		Record{Type: TypeSubmit, Time: t0.Add(3 * time.Second), JobID: "job-3", Spec: spec},
	)
	states, err = Replay(dir)
	if err != nil || len(states) != 3 || states[1].Status != "queued" || states[2].ID != "job-3" {
		t.Fatalf("replayed %+v, %v; want job-2 queued and job-3 after it", states, err)
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

// TestReplayAcrossLives runs four lives on one directory, each killed
// mid-write: its last segment ends in a line without its newline. The
// second life rotates at a small size and preempts a job the third
// resumes to done. After every life Replay holds every job as it last
// stood, and every file an earlier life left is byte for byte as it was
// then: nothing is rewritten, nothing deleted. A whole line that does not
// decode is corruption, named by its file.
func TestReplayAcrossLives(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	spec := json.RawMessage(`{"dataset":"australian","method":"asha"}`)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	submit := func(id string, s int) Record { return Record{Type: TypeSubmit, Time: at(s), JobID: id, Spec: spec} }
	running := func(id string, s int) Record {
		return Record{Type: TypeStatus, Time: at(s), JobID: id, Status: "running"}
	}
	result := func(id string, s int, status, reason string, evals int) Record {
		return Record{Type: TypeResult, Time: at(s), JobID: id, Status: status, Reason: reason, Evaluations: evals, BestScore: ptr(0.8)}
	}
	for i, life := range []struct {
		maxBytes int64
		recs     []Record
		want     []string // id status evaluations preemptions
	}{
		{
			recs: []Record{submit("job-1", 1), running("job-1", 2), result("job-1", 3, "done", "", 4), submit("job-2", 4), running("job-2", 5)},
			want: []string{"job-1 done 4 0", "job-2 running 0 0"},
		},
		{
			maxBytes: 200,
			recs: []Record{
				result("job-2", 10, "cancelled", "interrupted", 0), submit("job-3", 11), running("job-3", 12),
				{Type: TypePreempt, Time: at(13), JobID: "job-3", Evaluations: 2, Checkpoint: json.RawMessage(`{"preempts":1}`)},
				submit("job-4", 14),
			},
			want: []string{"job-1 done 4 0", "job-2 cancelled 0 0", "job-3 queued 2 1", "job-4 queued 0 0"},
		},
		{
			recs: []Record{running("job-3", 20), func() Record { r := result("job-3", 21, "done", "", 6); r.Preemptions = 1; return r }()},
			want: []string{"job-1 done 4 0", "job-2 cancelled 0 0", "job-3 done 6 1", "job-4 queued 0 0"},
		},
		{
			recs: []Record{running("job-4", 30), result("job-4", 31, "failed", "", 1)},
			want: []string{"job-1 done 4 0", "job-2 cancelled 0 0", "job-3 done 6 1", "job-4 failed 1 0"},
		},
	} {
		before := dirFiles(t, dir)
		w, err := OpenOptions(dir, Options{MaxBytes: life.maxBytes})
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range life.recs {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		segs, err := seglog.List(dir, "journal-")
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, segs[len(segs)-1].Name), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(`{"t":"result","job":"job-1","status":"fai`); err != nil {
			t.Fatal(err)
		}
		f.Close()

		after := dirFiles(t, dir)
		for name, data := range before {
			if after[name] != data {
				t.Fatalf("life %d rewrote or deleted %s", i+1, name)
			}
		}
		if life.maxBytes > 0 && len(after)-len(before) < 2 {
			t.Fatalf("life %d added %d segments at MaxBytes %d; want rotations", i+1, len(after)-len(before), life.maxBytes)
		}
		states, err := Replay(dir)
		if err != nil {
			t.Fatalf("after life %d: %v", i+1, err)
		}
		var got []string
		for _, st := range states {
			got = append(got, fmt.Sprintf("%s %s %d %d", st.ID, st.Status, st.Evaluations, st.Preemptions))
		}
		if fmt.Sprint(got) != fmt.Sprint(life.want) {
			t.Fatalf("after life %d replayed\n %v\nwant\n %v", i+1, got, life.want)
		}
	}

	files := dirFiles(t, dir)
	if s := DirStats(dir); s.Segments != len(files) || s.Bytes == 0 {
		t.Fatalf("DirStats sees %+v of %d segments", s, len(files))
	}
	corrupt := segmentName(len(files) + 1)
	line, _ := json.Marshal(submit("job-5", 40))
	data := string(line) + "\n" + `{"t":"submit","job":` + "\n" + string(line) + "\n"
	if err := os.WriteFile(filepath.Join(dir, corrupt), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir); err == nil || !strings.Contains(err.Error(), corrupt) {
		t.Fatalf("a whole undecodable line replayed as %v; want an error naming %s", err, corrupt)
	}
}

// TestWriterClosedAppendFails: Close is terminal — an append after it
// fails and writes nothing, neither into the closed segment nor a new one.
func TestWriterClosedAppendFails(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenOptions(dir, Options{})
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

// TestRotationConcurrentAppends hammers a rotating writer from several
// goroutines (run under -race via make check): every job must survive
// rotation, every sealed segment must have reached the size limit, and
// nothing but segments may be on disk.
func TestRotationConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	const maxBytes = 512
	w, err := OpenOptions(dir, Options{MaxBytes: maxBytes})
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
	files := dirFiles(t, dir)
	for seq := 1; seq < len(files); seq++ {
		if data, ok := files[segmentName(seq)]; !ok || len(data) < maxBytes {
			t.Fatalf("%s holds %d bytes (on disk: %v); every segment but the last is sealed at %d", segmentName(seq), len(data), ok, maxBytes)
		}
	}
	if _, ok := files[segmentName(len(files))]; !ok || len(files) < 5 {
		t.Fatalf("%d files on disk, want several segments and nothing else", len(files))
	}
	if s := DirStats(dir); s.Segments != len(files) || s.Bytes == 0 {
		t.Fatalf("DirStats sees %+v of %d segments", s, len(files))
	}
}
