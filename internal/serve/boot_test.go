package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
)

// queuedJournal writes a data directory's journal by hand: one submit
// record, so one queued job, per spec.
func queuedJournal(t *testing.T, dir string, specs ...[]byte) {
	t.Helper()
	w, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, spec := range specs {
		rec := journal.Record{Type: journal.TypeSubmit, Time: time.Now(), JobID: fmt.Sprintf("job-%d", i+1), Spec: spec}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
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
// janitor, no open log — and the same directory boots once the cause is
// repaired. Two causes: a submit record whose spec is JSON but not a
// JobSpec, behind a queued job; and a traces/ directory of the per-job
// layout, which is refused after the manager exists.
func TestFailedBootLeavesNothingRunning(t *testing.T) {
	good, err := json.Marshal(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	const goodScale, badScale = `"scale":0.06`, `"scale":"x"`
	for _, tc := range []struct {
		name          string
		specs         [][]byte
		damage, mends func(t *testing.T, dir string)
	}{
		{
			name:   "undecodable-spec",
			specs:  [][]byte{good, bytes.Replace(good, []byte(goodScale), []byte(badScale), 1)},
			damage: func(*testing.T, string) {},
			mends:  func(t *testing.T, dir string) { rewriteLogs(t, dir, badScale, goodScale) },
		},
		{
			name:  "per-job-trace-layout",
			specs: [][]byte{good},
			damage: func(t *testing.T, dir string) {
				if err := os.MkdirAll(TraceDir(dir), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(TraceDir(dir), "job-1.trace.jsonl"), []byte("{}\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			mends: func(t *testing.T, dir string) {
				if err := os.Remove(filepath.Join(TraceDir(dir), "job-1.trace.jsonl")); err != nil {
					t.Fatal(err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			queuedJournal(t, dir, tc.specs...)
			tc.damage(t, dir)
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

			tc.mends(t, dir)
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

// servedJob is everything a client can read of one job's event history.
type servedJob struct {
	trace   []byte            // GET /jobs/{id}/trace
	events  []json.RawMessage // GET /jobs/{id}/trace?events=1
	since   []byte            // the curve of GET /jobs/{id}?since=N
	sse     []events.Event    // GET /jobs/{id}/events with Last-Event-ID N, up to upTo
	lastSeq uint64
}

// readServed reads a job's history every way the API offers it, the
// incremental ones from sequence n; the SSE stream is followed until it
// closes or delivers sequence upTo (a live feed never closes).
func readServed(t *testing.T, base, id string, n, upTo uint64) servedJob {
	t.Helper()
	get := func(path string) []byte {
		resp, err := http.Get(base + "/jobs/" + id + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs/%s%s: status %d, %v", id, path, resp.StatusCode, err)
		}
		return body
	}
	out := servedJob{trace: get("/trace")}
	if err := json.Unmarshal(get("/trace?events=1"), &out.events); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Curve   json.RawMessage `json:"curve"`
		LastSeq uint64          `json:"last_seq"`
	}
	if err := json.Unmarshal(get(fmt.Sprintf("?since=%d", n)), &snap); err != nil {
		t.Fatal(err)
	}
	out.since, out.lastSeq = snap.Curve, snap.LastSeq
	stream := openSSE(t, base, id, n)
	defer stream.close()
	for len(out.sse) == 0 || out.sse[len(out.sse)-1].Seq < upTo {
		ev, ok := stream.next(t)
		if !ok {
			break
		}
		out.sse = append(out.sse, ev)
	}
	return out
}

// TestRestartServesThreeKindsOfJob: a history held as the log's lines and
// decoded on first read is indistinguishable from one the process
// published itself. One data directory holds a finished job, a job
// frozen mid-run and a job preempted at a rung boundary (so resumable
// from its checkpoint); the process dies; the manager rebuilt from the
// journal serves /trace, ?events=1, ?since=N, an SSE connect with
// Last-Event-ID and last_seq for each as the first process did — the
// interrupted job plus its one synthesized terminal event, the resumable
// one as the prefix of a feed that goes on numbering where it stopped.
func TestRestartServesThreeKindsOfJob(t *testing.T) {
	const finished, resumable, interrupted = "job-1", "job-2", "job-5"
	release := make(chan struct{})
	var m1, m2 *Manager
	t.Cleanup(func() {
		close(release) // first: a held evaluation outlives a cancelled context
		for _, m := range []*Manager{m2, m1} {
			if m != nil {
				shutdown(t, m)
			}
		}
	})
	victimIn, frozen := make(chan struct{}, 1), make(chan struct{})
	cfg := Config{
		PoolSize: 1, MaxJobs: 1, MaxPending: 256, DataDir: t.TempDir(), DeterministicTiming: true,
		TenantWeights: map[string]int{"victim": 1, "vip": 8},
	}
	gate := make(chan struct{})
	cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		switch id {
		case resumable: // held in its first evaluation until the vip backlog exists
			return &gateOnceEvaluator{inner: inner, gate: gate, entered: victimIn}
		case interrupted:
			return &stubEvaluator{inner: inner, free: 3, hold: release, entered: frozen}
		}
		return inner
	}
	var err error
	if m1, err = NewManagerFromJournal(cfg); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewServer(m1))
	submit := func(spec JobSpec, wantID string) *Job {
		job, err := m1.Submit(spec)
		if err != nil || job.ID != wantID {
			t.Fatalf("submitted %v, %v; want %s", job, err, wantID)
		}
		return job
	}
	submit(smallSpec(), finished)
	waitJob(t, m1, finished, func(s Status) bool { return s == StatusDone }, "done")
	victim := submit(wideSpec("victim"), resumable)
	<-victimIn
	submit(tinySpec("vip", 70), "job-3")
	submit(tinySpec("vip", 71), "job-4")
	last := smallSpec()
	last.Tenant = "vip"
	submit(last, interrupted)
	close(gate)
	<-frozen // MaxJobs is 1: the victim is not running, so it yielded or it is done
	if snap := victim.Snapshot(); snap.Preemptions == 0 || snap.Status != StatusQueued {
		t.Fatalf("the victim is %s after %d preemptions; the test needs it preempted and waiting", snap.Status, snap.Preemptions)
	}
	ids := []string{finished, interrupted, resumable}
	before := map[string]servedJob{}
	for _, id := range ids {
		lastSeq := getJob(t, ts1.URL, id).LastSeq
		if lastSeq < 3 {
			t.Fatalf("%s has only %d events before the crash", id, lastSeq)
		}
		before[id] = readServed(t, ts1.URL, id, lastSeq/2, lastSeq)
	}
	ts1.Close()
	// Kill: no Shutdown, nothing closed.

	cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		return &stubEvaluator{inner: inner, hold: release} // the resumed victim publishes no new point
	}
	if m2, err = NewManagerFromJournal(cfg); err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewServer(m2))
	defer ts2.Close()
	if got := m2.Metrics(); got.JobsRestored != 5 || got.BootMS <= 0 || got.BootJournalMS <= 0 || got.BootTraceMS <= 0 ||
		got.BootJournalMS > got.BootMS || got.BootTraceMS > got.BootMS {
		t.Errorf("boot metrics: %d jobs restored in %v ms (journal %v ms, trace log %v ms)",
			got.JobsRestored, got.BootMS, got.BootJournalMS, got.BootTraceMS)
	}
	for _, id := range ids {
		b := before[id]
		extra := uint64(0)
		if id == interrupted {
			extra = 1
		}
		a := readServed(t, ts2.URL, id, b.lastSeq/2, b.lastSeq+extra)
		if !bytes.Equal(a.trace, b.trace) || !bytes.Equal(a.since, b.since) {
			t.Errorf("%s: curve differs across the restart:\n /trace %s\n was    %s\n since  %s\n was    %s", id, a.trace, b.trace, a.since, b.since)
		}
		if id == resumable {
			// The feed is live again: whatever this life added comes after.
			if a.lastSeq < b.lastSeq || len(a.events) < len(b.events) || len(a.sse) < len(b.sse) {
				t.Fatalf("%s: history shrank across the restart: last_seq %d → %d, %d → %d events", id, b.lastSeq, a.lastSeq, len(b.events), len(a.events))
			}
			a.lastSeq, a.events, a.sse = b.lastSeq, a.events[:len(b.events)], a.sse[:len(b.sse)]
		}
		if a.lastSeq != b.lastSeq+extra || len(a.events) != len(b.events)+int(extra) || len(a.sse) != len(b.sse)+int(extra) {
			t.Fatalf("%s: last_seq %d → %d, %d → %d events, %d → %d SSE frames; want %d more of each",
				id, b.lastSeq, a.lastSeq, len(b.events), len(a.events), len(b.sse), len(a.sse), extra)
		}
		for i := range b.events {
			if !bytes.Equal(a.events[i], b.events[i]) {
				t.Errorf("%s: event %d differs across the restart:\n now %s\n was %s", id, i, a.events[i], b.events[i])
			}
		}
		for i := range b.sse {
			now, _ := json.Marshal(a.sse[i])
			was, _ := json.Marshal(b.sse[i])
			if !bytes.Equal(now, was) {
				t.Errorf("%s: SSE frame %d differs across the restart:\n now %s\n was %s", id, i, now, was)
			}
		}
		if extra == 1 {
			end := a.sse[len(a.sse)-1]
			if !end.Terminal || end.Status != string(StatusCancelled) || end.Reason != string(ReasonInterrupted) || end.Seq != a.lastSeq {
				t.Errorf("%s: the synthesized terminal event is %+v", id, end)
			}
		}
	}
	if got := m2.Metrics().TraceStoreErrors; got != 0 {
		t.Errorf("trace_store_errors = %d after reading a sound log", got)
	}
}

// TestBootOnDamagedTraceLog: a trace log with a torn tail and, in the
// middle of one finished job, a line that is JSON but not an event. The
// daemon boots and serves; the damaged job's history ends at the bad line
// when it is first read, which counts once in trace_store_errors; every
// other job's trace is what it was.
func TestBootOnDamagedTraceLog(t *testing.T) {
	cfg := Config{PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir()}
	m1, err := NewManagerFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(NewServer(m1))
	ids := []string{"job-1", "job-2"}
	for range ids {
		if _, err := m1.Submit(smallSpec()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		waitJob(t, m1, id, func(s Status) bool { return s == StatusDone }, "done")
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

	m2, err := NewManagerFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	if resp, err := http.Get(ts2.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after the damaged read: %v, %v", resp, err)
	} else {
		resp.Body.Close()
	}
}
