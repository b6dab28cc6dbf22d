package journal

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// frozenRecords are the appends TestSegmentBytesFrozen pins the files of.
func frozenRecords() []Record {
	t0 := time.Date(2026, 8, 5, 10, 0, 0, 0, time.UTC)
	spec := json.RawMessage(`{"dataset":"australian","method":"sha"}`)
	return []Record{
		{Type: TypeSubmit, Time: t0, JobID: "job-1", Token: "tok", Tenant: "gold", Spec: spec},
		{Type: TypeStatus, Time: t0.Add(time.Second), JobID: "job-1", Status: "running"},
		{Type: TypeResult, Time: t0.Add(2 * time.Second), JobID: "job-1", Status: "done", Evaluations: 2,
			Curve: sampleCurve(), BestConfig: map[string]any{"activation": "relu"}, BestScore: ptr(0.83), TestScore: ptr(0.8)},
		{Type: TypeSubmit, Time: t0.Add(3 * time.Second), JobID: "job-2", Spec: spec},
		{Type: TypeEvent, Time: t0.Add(4 * time.Second), JobID: "job-2", Reason: "deadline"},
		{Type: TypePreempt, Time: t0.Add(5 * time.Second), JobID: "job-2", Evaluations: 1, Checkpoint: json.RawMessage(`{"trials":1}`)},
	}
}

// dirFiles returns a directory's files by name.
func dirFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// Lines of the files TestSegmentBytesFrozen pins, as the parent of the
// shared segment writer wrote them.
const (
	frozenSubmit1 = `{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1","token":"tok","spec":{"dataset":"australian","method":"sha"},"tenant":"gold"}` + "\n"
	frozenStatus1 = `{"t":"status","time":"2026-08-05T10:00:01Z","job":"job-1","status":"running"}` + "\n"
	frozenResult1 = `{"t":"result","time":"2026-08-05T10:00:02Z","job":"job-1","status":"done","evaluations":2,` +
		`"curve":[{"evaluations":1,"cum_budget":100,"cum_time_ns":12345000,"best_score":0.71},{"evaluations":2,"cum_budget":250,"cum_time_ns":34567000,"best_score":0.83}],` +
		`"best_config":{"activation":"relu"},"best_score":0.83,"test_score":0.8}` + "\n"
	frozenSubmit2 = `{"t":"submit","time":"2026-08-05T10:00:03Z","job":"job-2","spec":{"dataset":"australian","method":"sha"}}` + "\n"
	frozenEvent2  = `{"t":"event","time":"2026-08-05T10:00:04Z","job":"job-2","reason":"deadline"}` + "\n"
	frozenPreempt = `{"t":"preempt","time":"2026-08-05T10:00:05Z","job":"job-2","evaluations":1,"checkpoint":{"trials":1}}` + "\n"
	// Compaction folds the preempt record under the submission's time.
	frozenFolded = `{"t":"preempt","time":"2026-08-05T10:00:03Z","job":"job-2","evaluations":1,"checkpoint":{"trials":1}}` + "\n"
)

// TestSegmentBytesFrozen pins, byte for byte, the files a fixed sequence
// of appends leaves — a rotation, the fold of the sealed segment into a
// base, the active segment, then a boot's compaction — so a change to the
// writer cannot change what is on disk.
func TestSegmentBytesFrozen(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenOptions(dir, Options{MaxBytes: 600})
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
	base := frozenSubmit1 + frozenStatus1 + frozenResult1 + frozenSubmit2
	checkFiles(t, dir, map[string]string{
		"base-000001.jsonl":    base,
		"journal-000002.jsonl": frozenEvent2 + frozenPreempt,
	})
	states, err := Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compact(dir, states); err != nil {
		t.Fatal(err)
	}
	checkFiles(t, dir, map[string]string{"base-000002.jsonl": base + frozenFolded})
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
// exactly once with true and never again, and each sealed segment's fold
// is announced as its base once the base is on disk and the segment gone.
func TestOnChangeOrderUnderRotation(t *testing.T) {
	dir := t.TempDir()
	var (
		mu    sync.Mutex
		calls []hookCall
	)
	w, err := OpenOptions(dir, Options{
		MaxBytes: 512,
		OnError:  func(err error) { t.Errorf("fold: %v", err) },
		OnChange: func(name string, sealed bool) {
			if seq, ok := parseSeq(name, "base-"); ok {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Errorf("%s announced before it is on disk: %v", name, err)
				}
				if _, err := os.Stat(filepath.Join(dir, segmentName(seq))); err == nil {
					t.Errorf("%s announced while %s is still on disk", name, segmentName(seq))
				}
			}
			mu.Lock()
			calls = append(calls, hookCall{name, sealed})
			mu.Unlock()
		},
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

	sealedAt := map[string]int{} // segment or base → index of its sealed announcement
	appended := 0
	for i, c := range calls {
		if at, again := sealedAt[c.name]; again {
			t.Fatalf("call %d: %s announced (sealed=%v) after it was sealed at call %d", i, c.name, c.sealed, at)
		}
		switch {
		case !c.sealed:
			appended++
		case strings.HasPrefix(c.name, "base-"):
			seq, _ := parseSeq(c.name, "base-")
			if _, ok := sealedAt[segmentName(seq)]; !ok {
				t.Fatalf("call %d: %s announced before %s was sealed", i, c.name, segmentName(seq))
			}
			sealedAt[c.name] = i
		default:
			sealedAt[c.name] = i
		}
	}
	var segs, bases []string
	for name := range sealedAt {
		if strings.HasPrefix(name, "base-") {
			bases = append(bases, name)
		} else {
			segs = append(segs, name)
		}
	}
	sort.Strings(segs)
	if len(segs) < 5 || len(bases) != len(segs) {
		t.Fatalf("%d segments sealed, %d bases announced: want several, one base per segment", len(segs), len(bases))
	}
	if appended+len(segs) != appends {
		t.Fatalf("%d appends announced unsealed + %d seals, want %d appends", appended, len(segs), appends)
	}
	for i, name := range segs {
		if name != segmentName(i+1) {
			t.Fatalf("sealed segments %v, want journal-000001 onward without a gap", segs)
		}
	}
}

// TestEveryLifeStartsItsOwnSegment: a writer that appends nothing leaves
// no file, and one that appends starts the segment after the newest on
// disk — never writing into a previous life's, which may end in a torn
// line.
func TestEveryLifeStartsItsOwnSegment(t *testing.T) {
	dir := t.TempDir()
	recs := frozenRecords()
	for life, rec := range []*Record{nil, &recs[0], nil, &recs[3]} {
		before := dirFiles(t, dir)
		w, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if rec != nil {
			if err := w.Append(*rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		after := dirFiles(t, dir)
		for name, data := range before {
			if after[name] != data {
				t.Fatalf("life %d changed %s, which an earlier life wrote", life, name)
			}
		}
		if added := len(after) - len(before); (rec != nil) != (added == 1) || added > 1 {
			t.Fatalf("life %d (appending %v) added %d files", life, rec != nil, added)
		}
	}
	if files := dirFiles(t, dir); len(files) != 2 || files[segmentName(1)] == "" || files[segmentName(2)] == "" {
		t.Fatalf("two appending lives left %v, want journal-000001 and journal-000002", files)
	}
	states, err := Replay(dir)
	if err != nil || len(states) != 2 {
		t.Fatalf("replayed %d jobs, %v; want both lives' submissions", len(states), err)
	}
}
