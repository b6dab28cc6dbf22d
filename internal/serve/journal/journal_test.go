package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/serve/seglog"
	"enhancedbhpo/internal/serve/tracestore"
)

func ptr(f float64) *float64 { return &f }

// appendRecords appends recs to dir's trace log as bhpod does, in one life
// that rotates at maxBytes (0: the store's default), and returns the path
// of the life's last segment.
func appendRecords(t *testing.T, dir string, maxBytes int64, recs ...Record) string {
	t.Helper()
	store, err := tracestore.Open(tracestore.Dir(dir), tracestore.Options{MaxBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AppendRecord(line, rec.Type == TypeResult); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := seglog.List(tracestore.Dir(dir), "trace-")
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(tracestore.Dir(dir), segs[len(segs)-1].Name)
}

func TestReplayMergesRecords(t *testing.T) {
	dir := t.TempDir()
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	records := []Record{
		{Type: TypeSubmit, Time: t0, JobID: "job-1", Spec: spec},
		{Type: TypeStatus, Time: t0.Add(time.Second), JobID: "job-1", Status: "running"},
		{Type: TypeSubmit, Time: t0.Add(2 * time.Second), JobID: "job-2", Spec: spec},
		{
			Type: TypeResult, Time: t0.Add(3 * time.Second), JobID: "job-1",
			Status: "done", Evaluations: 2, Budget: 250,
			BestConfig: map[string]any{"activation": "relu"},
			BestScore:  ptr(0.83), TestScore: ptr(0.80),
		},
	}
	appendRecords(t, dir, 0, records...)

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
	if j1.Evaluations != 2 || j1.Budget != 250 {
		t.Fatalf("job-1: %d evals, budget %d; want 2 and the result's budget, 250", j1.Evaluations, j1.Budget)
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
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	records := []Record{
		{Type: TypeSubmit, Time: t0, JobID: "job-1", Spec: json.RawMessage(`{}`)},
		{Type: TypeStatus, Time: t0.Add(time.Second), JobID: "job-1", Status: "running"},
		{Type: TypePreempt, Time: t0.Add(2 * time.Second), JobID: "job-1", Evaluations: 1, Checkpoint: json.RawMessage(`{}`)},
		{Type: TypeStatus, Time: t0.Add(3 * time.Second), JobID: "job-1", Status: "running"},
		{Type: TypeResult, Time: t0.Add(4 * time.Second), JobID: "job-1", Status: "done", Evaluations: 2},
	}
	appendRecords(t, dir, 0, records...)
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

// writeSegment handcrafts segment seq of dir's trace log from records and
// returns its path.
func writeSegment(t *testing.T, dir string, seq int, recs ...Record) string {
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
	return writeLines(t, dir, seq, buf)
}

// writeLines writes segment seq of dir's trace log and returns its path.
func writeLines(t *testing.T, dir string, seq int, data []byte) string {
	t.Helper()
	path := filepath.Join(tracestore.Dir(dir), seglog.Name("trace-", seq))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReplayMissingMiddleSegment: a gap in the log's segment sequence is
// lost data and must fail with an error naming the missing segment —
// whatever came before it: records, or event lines alone.
func TestReplayMissingMiddleSegment(t *testing.T) {
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	now := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	submit := func(seq int) Record {
		return Record{Type: TypeSubmit, Time: now, JobID: fmt.Sprint("job-", seq), Spec: spec}
	}
	for _, tc := range []struct {
		name string
		// first writes the first segment.
		first func(t *testing.T, dir string)
	}{
		{"trace-log", func(t *testing.T, dir string) { writeSegment(t, dir, 1, submit(1)) }},
		{"events-before-gap", func(t *testing.T, dir string) {
			writeLines(t, dir, 1, []byte(`{"seq":1,"type":"status","time":"2026-08-05T10:00:00Z","job":"job-1","status":"running"}`+"\n"))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.first(t, dir)
			missing := writeSegment(t, dir, 2, submit(2))
			writeSegment(t, dir, 3, submit(3))
			if _, err := Replay(dir); err != nil {
				t.Fatalf("contiguous segments: %v", err)
			}
			if err := os.Remove(missing); err != nil {
				t.Fatal(err)
			}
			_, err := Replay(dir)
			if err == nil {
				t.Fatal("missing middle segment replayed without error")
			}
			if !strings.Contains(err.Error(), filepath.Base(missing)) {
				t.Fatalf("error %q does not name the missing segment", err)
			}
		})
	}
}

// TestReplayAcrossLives runs four lives on one directory, each appending
// its records to the trace log and killed mid-write: its last segment
// ends in a line without its newline. The second life rotates at a small
// size and preempts a job the third resumes to done; the fourth rotates
// too. After every life Replay holds every job
// as it last stood, and every file an earlier life left is byte for byte
// as it was then: nothing is rewritten, nothing deleted. A whole record
// line that does not decode is corruption, named by its file.
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
			maxBytes: 50,
			recs:     []Record{running("job-4", 30), result("job-4", 31, "failed", "", 1)},
			want:     []string{"job-1 done 4 0", "job-2 cancelled 0 0", "job-3 done 6 1", "job-4 failed 1 0"},
		},
	} {
		before := dirFiles(t, dir)
		last := appendRecords(t, dir, life.maxBytes, life.recs...)
		f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
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

	logSegs, err := seglog.List(tracestore.Dir(dir), "trace-")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := seglog.Name("trace-", len(logSegs)+1)
	line, _ := json.Marshal(submit("job-5", 40))
	data := string(line) + "\n" + `{"t":"submit","job":` + "\n" + string(line) + "\n"
	if err := os.WriteFile(filepath.Join(tracestore.Dir(dir), corrupt), []byte(data), 0o644); err != nil {
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
