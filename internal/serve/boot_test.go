package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/tracestore"
)

// queuedJournal writes a data directory's log by hand: one submit record,
// so one queued job, per spec.
func queuedJournal(t *testing.T, dir string, specs ...[]byte) {
	t.Helper()
	store, err := tracestore.Open(TraceDir(dir), tracestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		line, err := json.Marshal(journal.Record{Type: journal.TypeSubmit, Time: time.Now(), JobID: fmt.Sprintf("job-%d", i+1), Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if err := store.AppendRecord(line, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
}

// rewriteLogs replaces old with new in every *.jsonl file under dir that
// holds it — damage, or its repair — and fails if none does.
func rewriteLogs(t *testing.T, dir, old, new string) {
	t.Helper()
	hits := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".jsonl") {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil || !bytes.Contains(raw, []byte(old)) {
			return err
		}
		hits++
		return os.WriteFile(path, bytes.Replace(raw, []byte(old), []byte(new), 1), 0o644)
	})
	if err != nil || hits == 0 {
		t.Fatalf("rewriting %q in %s: %d files, %v", old, dir, hits, err)
	}
}

// TestFailedBootLeavesNothingRunning: NewManagerFromJournal either
// returns a manager or leaves nothing behind — no job of the half-built
// table training and journaling into a directory nobody serves, no
// janitor, no open log, no byte of the directory changed — and the same
// directory boots once the cause is repaired. The causes: a submit record
// whose spec is JSON but not a JobSpec, behind a queued job; and a file of
// an earlier on-disk format — a journal segment or base at the root, a
// per-job trace file under traces/ — which the boot refuses by name. A
// file or directory that is not the log's (lost+found) is ignored.
func TestFailedBootLeavesNothingRunning(t *testing.T) {
	good, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	const goodScale, badScale = `"scale":0.06`, `"scale":"x"`
	for _, tc := range []struct {
		name string
		// older is the file of an earlier format the row adds, relative to
		// the data directory; "" for the undecodable spec.
		older string
		specs [][]byte
	}{
		{"undecodable-spec", "", [][]byte{good, bytes.Replace(good, []byte(goodScale), []byte(badScale), 1)}},
		{"per-job-trace-layout", filepath.Join("traces", "job-1.trace.jsonl"), [][]byte{good}},
		{"journal-file", "journal-000001.jsonl", [][]byte{good}},
		{"base-file", "base-000001.jsonl", [][]byte{good}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			queuedJournal(t, dir, tc.specs...)
			if err := os.Mkdir(filepath.Join(dir, "lost+found"), 0o700); err != nil {
				t.Fatal(err)
			}
			writeFile(t, filepath.Join(dir, "NOTES"), []byte("not the log's\n"))
			names := filepath.Join("traces", "trace-000001.jsonl") // the line of the bad spec
			if tc.older != "" {
				names = tc.older
				writeFile(t, filepath.Join(dir, tc.older), []byte(`{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1"}`+"\n"))
			}
			before := readTree(t, dir)
			var evals atomic.Int64
			cfg := Config{PoolSize: 1, MaxJobs: 1, DataDir: dir, ScopeTTL: time.Hour,
				WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
					evals.Add(1)
					return inner
				}}
			baseline := runtime.NumGoroutine()
			m, err := NewManagerFromJournal(cfg)
			if err == nil {
				shutdown(t, m)
				t.Fatal("the damaged directory booted")
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, names)) {
				t.Errorf("the boot failed with %v, which does not name %s", err, names)
			}
			if after := readTree(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Errorf("the failed boot changed the directory:\n now %q\n was %q", after, before)
			}
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > baseline {
				t.Errorf("the failed boot (%v) left %d goroutines, %d before it", err, n, baseline)
			}
			if n := evals.Load(); n != 0 {
				t.Errorf("the failed boot started %d jobs", n)
			}

			if tc.older == "" {
				rewriteLogs(t, dir, badScale, goodScale)
			} else if err := os.Remove(filepath.Join(dir, tc.older)); err != nil {
				t.Fatal(err)
			}
			m, err = NewManagerFromJournal(cfg)
			if err != nil {
				t.Fatalf("the repaired directory does not boot: %v", err)
			}
			defer shutdown(t, m)
			for i := range tc.specs {
				waitJob(t, m, fmt.Sprintf("job-%d", i+1), func(s Status) bool { return s == StatusDone }, "done")
			}
			if got := m.Metrics(); got.JobsRestored != len(tc.specs) || got.JournalErrors != 0 || got.TraceStoreErrors != 0 {
				t.Errorf("after the repair: %d jobs restored, %d journal errors, %d trace errors",
					got.JobsRestored, got.JournalErrors, got.TraceStoreErrors)
			}
		})
	}
}

// TestBootOnDamagedTraceLog: a trace log with a torn tail and, in the
// middle of one finished job, a line that is JSON but not an event. The
// daemon boots and serves; the damaged job's history ends at the bad line
// when it is first read, which counts once in trace_store_errors; every
// other job's trace is what it was.
func TestBootOnDamagedTraceLog(t *testing.T) {
	cfg := Config{PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir()}
	m1 := bootJournaled(t, cfg)
	ts1 := httptest.NewServer(NewServer(m1))
	ids := []string{"job-1", "job-2"}
	for _, id := range ids {
		submitAs(t, m1, smallSpec(), id)
	}
	for _, id := range ids {
		// The terminal event, not the status: a reader sees done before
		// the event is written (ROADMAP item 1).
		for deadline := time.Now().Add(90 * time.Second); !m1.hub.Done(id); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s never published its terminal event", id)
			}
		}
	}
	before := fetchTraces(t, ts1.URL, ids)
	lastSeq := getJob(t, ts1.URL, "job-2").LastSeq
	ts1.Close()
	shutdown(t, m1)

	segment := traceSegments(t, cfg.DataDir)[0]
	raw, err := os.ReadFile(segment)
	if err != nil {
		t.Fatal(err)
	}
	const third = `{"seq":3,`
	lines := bytes.SplitAfter(raw, []byte("\n"))
	damaged := 0
	for i, line := range lines {
		if bytes.HasPrefix(line, []byte(third)) && bytes.Contains(line, []byte(`"job":"job-2"`)) {
			lines[i] = append([]byte(`{"seq":"x",`), line[len(third):]...)
			damaged++
		}
	}
	if damaged != 1 {
		t.Fatalf("%d lines of %s are job-2's third event", damaged, segment)
	}
	raw = append(bytes.Join(lines, nil), `{"seq":9,"type":"curve_point","job":"job-1","poi`...) // and a torn tail
	if err := os.WriteFile(segment, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := bootJournaled(t, cfg)
	ts2 := httptest.NewServer(NewServer(m2))
	defer shutdown(t, m2)
	defer ts2.Close()
	if got := m2.Metrics(); got.TraceStoreErrors != 0 || got.EventsPublished != 0 {
		t.Fatalf("the boot counted %d trace errors and published %d events before anything was read", got.TraceStoreErrors, got.EventsPublished)
	}
	if snap := getJob(t, ts2.URL, "job-2"); snap.LastSeq != lastSeq || snap.Status != StatusDone {
		t.Errorf("the damaged job is %s at last_seq %d, was done at %d", snap.Status, snap.LastSeq, lastSeq)
	}
	for round := 1; round <= 2; round++ { // decoded once: the second read counts nothing new
		var evs []events.Event
		getJSON(t, ts2.URL+"/jobs/job-2/trace?events=1", &evs)
		if len(evs) != 2 || evs[1].Seq != 2 {
			t.Fatalf("read %d: the damaged job serves %d events, want the two before the bad line", round, len(evs))
		}
		if got := m2.Metrics().TraceStoreErrors; got != 1 {
			t.Fatalf("read %d: trace_store_errors = %d, want 1", round, got)
		}
	}
	if after := fetchTraces(t, ts2.URL, ids[:1]); !bytes.Equal(after["job-1"], before["job-1"]) {
		t.Errorf("the undamaged job's trace changed:\n now %s\n was %s", after["job-1"], before["job-1"])
	}
	getBody(t, ts2.URL+"/healthz")
}
