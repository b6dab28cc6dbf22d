package journal

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/serve/seglog"
)

func segmentName(seq int) string { return seglog.Name(writerPrefix, seq) }

// frozenRecords are the appends TestSegmentBytesFrozen pins the files of.
func frozenRecords() []Record {
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	return []Record{
		{Type: TypeSubmit, Time: t0, JobID: "job-1", Token: "tok", Tenant: "gold", Spec: spec},
		{Type: TypeStatus, Time: t0.Add(time.Second), JobID: "job-1", Status: "running"},
		{Type: TypeResult, Time: t0.Add(2 * time.Second), JobID: "job-1", Status: "done", Evaluations: 2,
			BestConfig: map[string]any{"activation": "relu"}, BestScore: ptr(0.83), TestScore: ptr(0.8)},
		{Type: TypeSubmit, Time: t0.Add(3 * time.Second), JobID: "job-2", Spec: spec},
		{Type: TypePreempt, Time: t0.Add(5 * time.Second), JobID: "job-2", Evaluations: 1, Checkpoint: json.RawMessage(`{"trials":1}`)},
	}
}

// dirFiles returns the files under a directory by their path relative to
// it.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// Lines of the files TestSegmentBytesFrozen pins, as the parent of the
// shared segment writer wrote them.
const (
	frozenSubmit1 = `{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1","token":"tok","spec":{"dataset":"australian","method":"sha"},"tenant":"gold"}` + "\n"
	frozenStatus1 = `{"t":"status","time":"2026-08-05T10:00:01Z","job":"job-1","status":"running"}` + "\n"
	frozenResult1 = `{"t":"result","time":"2026-08-05T10:00:02Z","job":"job-1","status":"done","evaluations":2,` +
		`"best_config":{"activation":"relu"},"best_score":0.83,"test_score":0.8}` + "\n"
	frozenSubmit2 = `{"t":"submit","time":"2026-08-05T10:00:03Z","job":"job-2","spec":{"dataset":"australian","method":"sha"}}` + "\n"
	frozenPreempt = `{"t":"preempt","time":"2026-08-05T10:00:05Z","job":"job-2","evaluations":1,"checkpoint":{"trials":1}}` + "\n"
)

// TestSegmentBytesFrozen pins, byte for byte, the files a fixed sequence
// of appends leaves — a segment sealed by rotation and the active one — so
// a change to the writer cannot change what is on disk. DirStats counts
// them, and a boot's Replay refuses them, naming the first.
func TestSegmentBytesFrozen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenOptions(dir, Options{MaxBytes: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range frozenRecords() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	first := frozenSubmit1 + frozenStatus1 + frozenResult1 + frozenSubmit2
	checkFiles(t, dir, map[string]string{
		"journal-000001.jsonl": first,
		"journal-000002.jsonl": frozenPreempt,
	})
	if s := DirStats(dir); s != (Stats{Segments: 2, Bytes: int64(len(first) + len(frozenPreempt))}) {
		t.Errorf("DirStats sees %+v", s)
	}
	if _, err := Replay(dir); err == nil || !strings.Contains(err.Error(), filepath.Join(dir, segmentName(1))+" was written by an older bhpod") {
		t.Errorf("Replay of a Writer's files: %v; want them refused by name", err)
	}
}

// checkFiles fails unless dir holds exactly the files of want, each with
// its content.
func checkFiles(t *testing.T, dir string, want map[string]string) {
	t.Helper()
	got := dirFiles(t, dir)
	if len(got) != len(want) {
		t.Errorf("directory holds %d files, want %d", len(got), len(want))
	}
	for name, data := range want {
		if got[name] != data {
			t.Errorf("%s:\n got %q\nwant %q", name, got[name], data)
		}
	}
}

// hookCall is one OnChange call as a test saw it.
type hookCall struct {
	name   string
	sealed bool
}

// TestOnChangeOrderUnderRotation: under rotation every append that did
// not seal its segment is announced once with false, every sealed segment
// exactly once with true and never again, in sequence, and no other file
// is ever announced.
func TestOnChangeOrderUnderRotation(t *testing.T) {
	dir := t.TempDir()
	var calls []hookCall
	w, err := OpenOptions(dir, Options{
		MaxBytes: 512,
		OnChange: func(name string, sealed bool) { calls = append(calls, hookCall{name, sealed}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	const appends = 60
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	for i := range appends {
		if err := w.Append(Record{Type: TypeSubmit, JobID: fmt.Sprintf("job-%d", i), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	var segs []string // in the order they were sealed
	for i, c := range calls {
		if want := segmentName(len(segs) + 1); c.name != want {
			t.Fatalf("call %d announced %s (sealed=%v); want %s, the segment after the last sealed", i, c.name, c.sealed, want)
		}
		if c.sealed {
			segs = append(segs, c.name)
		}
	}
	if len(segs) < 5 || len(calls) != appends {
		t.Fatalf("%d segments sealed in %d announcements; want several, one per append", len(segs), len(calls))
	}
}
