package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/serve/journal"
)

// A data directory as the binary before curve-less result records left it:
// one finished job whose result record embeds its curve, and the trace log
// holding the same curve as curve_point events.
const (
	embeddedJournal = `{"t":"submit","time":"2026-08-05T10:00:00Z","job":"job-1","spec":{"tenant":"default","dataset":"australian","scale":0.06,"dataset_seed":1,"method":"sha","hps":2,"max_configs":6,"seed":3,"iters":2},"tenant":"default"}` + "\n" +
		`{"t":"status","time":"2026-08-05T10:00:01Z","job":"job-1","status":"running"}` + "\n" +
		`{"t":"result","time":"2026-08-05T10:00:02Z","job":"job-1","status":"done","evaluations":3,` +
		`"curve":[{"evaluations":1,"cum_budget":100,"cum_time_ns":100000000,"best_score":0.71},{"evaluations":2,"cum_budget":200,"cum_time_ns":200000000,"best_score":0.71},{"evaluations":3,"cum_budget":400,"cum_time_ns":400000000,"best_score":0.83}],` +
		`"best_config":{"activation":"relu"},"best_score":0.83,"test_score":0.8}` + "\n"
	embeddedTrace = `{"seq":1,"type":"status","time":"2026-08-05T10:00:01Z","job":"job-1","status":"running"}` + "\n" +
		`{"seq":2,"type":"curve_point","time":"2026-08-05T10:00:01.1Z","job":"job-1","point":{"evaluations":1,"cum_budget":100,"cum_time_ns":100000000,"best_score":0.71}}` + "\n" +
		`{"seq":3,"type":"curve_point","time":"2026-08-05T10:00:01.2Z","job":"job-1","point":{"evaluations":2,"cum_budget":200,"cum_time_ns":200000000,"best_score":0.71}}` + "\n" +
		`{"seq":4,"type":"rung","time":"2026-08-05T10:00:01.2Z","job":"job-1","round":1,"budget":200}` + "\n" +
		`{"seq":5,"type":"curve_point","time":"2026-08-05T10:00:01.4Z","job":"job-1","point":{"evaluations":3,"cum_budget":400,"cum_time_ns":400000000,"best_score":0.83}}` + "\n" +
		`{"seq":6,"type":"status","time":"2026-08-05T10:00:02Z","job":"job-1","status":"done","terminal":true}` + "\n"
)

// What the binary before curve-less result records served on that
// directory, byte for byte.
const (
	embeddedJobBody = `{
  "id": "job-1",
  "status": "done",
  "spec": {
    "tenant": "default",
    "dataset": "australian",
    "scale": 0.06,
    "dataset_seed": 1,
    "method": "sha",
    "hps": 2,
    "max_configs": 6,
    "seed": 3,
    "iters": 2
  },
  "tenant": "default",
  "submitted_at": "2026-08-05T10:00:00Z",
  "started_at": "2026-08-05T10:00:01Z",
  "finished_at": "2026-08-05T10:00:02Z",
  "evaluations": 3,
  "curve": [
    {
      "evaluations": 1,
      "cum_budget": 100,
      "cum_time_ns": 100000000,
      "best_score": 0.71
    },
    {
      "evaluations": 2,
      "cum_budget": 200,
      "cum_time_ns": 200000000,
      "best_score": 0.71
    },
    {
      "evaluations": 3,
      "cum_budget": 400,
      "cum_time_ns": 400000000,
      "best_score": 0.83
    }
  ],
  "sparkline": "__#",
  "best_config": {
    "activation": "relu"
  },
  "best_score": 0.83,
  "test_score": 0.8,
  "last_seq": 6
}
`
	embeddedTraceBody = `[{"evaluations":1,"cum_budget":100,"cum_time_ns":100000000,"best_score":0.71},` +
		`{"evaluations":2,"cum_budget":200,"cum_time_ns":200000000,"best_score":0.71},` +
		`{"evaluations":3,"cum_budget":400,"cum_time_ns":400000000,"best_score":0.83}]` + "\n"
	embeddedListBody = `[
  {
    "id": "job-1",
    "status": "done",
    "spec": {
      "tenant": "default",
      "dataset": "australian",
      "scale": 0.06,
      "dataset_seed": 1,
      "method": "sha",
      "hps": 2,
      "max_configs": 6,
      "seed": 3,
      "iters": 2
    },
    "tenant": "default",
    "submitted_at": "2026-08-05T10:00:00Z",
    "started_at": "2026-08-05T10:00:01Z",
    "finished_at": "2026-08-05T10:00:02Z",
    "evaluations": 3,
    "curve": null,
    "best_config": {
      "activation": "relu"
    },
    "best_score": 0.83,
    "test_score": 0.8
  }
]
`
)

// TestEmbeddedCurveFixtureBoots: a directory whose result record embeds its
// curve, as older binaries wrote it, boots and serves GET /jobs/{id},
// /trace and GET /jobs as those binaries did, byte for byte — the curve
// read from the trace log, nothing counted — and /tenants re-seeds the
// tenant's service from the embedded curve's final budget. A second boot
// serves the same again.
func TestEmbeddedCurveFixtureBoots(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "journal-000001.jsonl"), []byte(embeddedJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(TraceDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(TraceDir(dir), "trace-000001.jsonl"), []byte(embeddedTrace), 0o644); err != nil {
		t.Fatal(err)
	}
	for boot := 1; boot <= 2; boot++ {
		m := bootJournaled(t, Config{PoolSize: 1, MaxJobs: 1, DataDir: dir})
		ts := httptest.NewServer(NewServer(m))
		for path, want := range map[string]string{
			"/jobs/job-1":       embeddedJobBody,
			"/jobs/job-1/trace": embeddedTraceBody,
			"/jobs":             embeddedListBody,
		} {
			if got := getBody(t, ts.URL+path); string(got) != want {
				t.Errorf("boot %d: GET %s:\n got %s\nwant %s", boot, path, got, want)
			}
		}
		var tenants tenantsResponse
		getJSON(t, ts.URL+"/tenants", &tenants)
		if len(tenants.Tenants) != 1 || tenants.Tenants[0].ServiceUnits != 400 {
			t.Errorf("boot %d: /tenants %+v; want the default tenant at 400 service units", boot, tenants.Tenants)
		}
		if got := m.Metrics(); got.TraceStoreErrors != 0 || got.JournalErrors != 0 {
			t.Errorf("boot %d: %d trace errors, %d journal errors", boot, got.TraceStoreErrors, got.JournalErrors)
		}
		ts.Close()
		shutdown(t, m)
	}
	if states, err := journal.Replay(dir); err != nil || len(states) != 1 || states[0].Budget != 400 {
		t.Fatalf("the journal replays as %+v, %v; want the embedded curve's budget, 400", states, err)
	}
}

// appendTraceLines appends lines to a data directory's newest trace
// segment.
func appendTraceLines(t *testing.T, dataDir string, lines ...string) {
	t.Helper()
	segs := traceSegments(t, dataDir)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, line := range lines {
		if _, err := f.WriteString(line + "\n"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestListingLeavesHistoriesUndecoded: after a restart GET /jobs serves
// the same bytes as before it, without decoding a single finished job's
// history. Each job's history ends in a line that names the job but is no
// event, so decoding any of them would count in trace_store_errors — as
// the first reads of each job then do, racing each other for it: GET
// /jobs/{id} and /trace serve the bodies they served before the restart,
// and every history counts once.
func TestListingLeavesHistoriesUndecoded(t *testing.T) {
	cfg := Config{PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir()}
	m1 := bootJournaled(t, cfg)
	ts1 := httptest.NewServer(NewServer(m1))
	ids := []string{"job-1", "job-2", "job-3"}
	for i, id := range ids {
		spec := smallSpec()
		spec.Seed = uint64(3 + i)
		submitAs(t, m1, spec, id)
	}
	for _, id := range ids {
		waitJob(t, m1, id, func(s Status) bool { return s == StatusDone }, "done")
	}
	paths := []string{"/jobs"}
	for _, id := range ids {
		paths = append(paths, "/jobs/"+id, "/jobs/"+id+"/trace")
	}
	before := map[string][]byte{}
	for _, path := range paths {
		before[path] = getBody(t, ts1.URL+path)
	}
	ts1.Close()
	shutdown(t, m1)
	for _, id := range ids {
		appendTraceLines(t, cfg.DataDir, `{"job":"`+id+`","seq":"not an event"}`)
	}

	m2 := bootJournaled(t, cfg)
	defer shutdown(t, m2)
	ts2 := httptest.NewServer(NewServer(m2))
	defer ts2.Close()
	if after := getBody(t, ts2.URL+"/jobs"); !bytes.Equal(after, before["/jobs"]) {
		t.Errorf("GET /jobs differs across the restart:\nbefore %s\nafter  %s", before["/jobs"], after)
	}
	if got := m2.Metrics().TraceStoreErrors; got != 0 {
		t.Fatalf("GET /jobs decoded %d histories", got)
	}
	var wg sync.WaitGroup
	for _, path := range paths[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts2.URL + path)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if after, err := io.ReadAll(resp.Body); err != nil || !bytes.Equal(after, before[path]) {
				t.Errorf("GET %s differs across the restart (%v):\nbefore %s\nafter  %s", path, err, before[path], after)
			}
		}()
	}
	wg.Wait()
	if got := m2.Metrics().TraceStoreErrors; got != int64(len(ids)) {
		t.Errorf("reading %d jobs counted %d trace errors, want one per history", len(ids), got)
	}
}

// lineOf returns where the n-th line of raw that holds every mark starts
// and ends (n from 0), failing the test if raw has no such line.
func lineOf(t *testing.T, raw []byte, n int, marks ...string) (int, int) {
	t.Helper()
	for off := 0; off < len(raw); {
		end := off + bytes.IndexByte(raw[off:], '\n') + 1
		held := 0
		for _, mark := range marks {
			if bytes.Contains(raw[off:end], []byte(mark)) {
				held++
			}
		}
		if held == len(marks) {
			if n == 0 {
				return off, end
			}
			n--
		}
		off = end
	}
	t.Fatalf("the trace log has fewer than %d lines holding %q", n+1, marks)
	return 0, 0
}

// writeFile writes data to path, failing the test if it cannot.
func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// olderLayout rewrites a data directory as a binary before the one log
// left it: every record line of its log moved, in order, to a journal
// file at its root; only events in its trace log. There the journal could
// outlive the unsynced tail of the trace log — in one log, a synced
// record makes every line before it durable.
func olderLayout(t *testing.T, dir string) {
	t.Helper()
	var journal []byte
	for _, seg := range traceSegments(t, dir) {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		var events []byte
		for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
			if bytes.HasPrefix(line, []byte(`{"t":`)) {
				journal = append(journal, line...)
			} else {
				events = append(events, line...)
			}
		}
		writeFile(t, seg, events)
	}
	writeFile(t, filepath.Join(dir, "journal-000001.jsonl"), journal)
}

// TestShortHistoryCounted: the trace log is the only copy of a finished
// curve, so a history cut short — a segment's unsynced tail lost to a power
// cut, here in the middle of a line, or every line of the job — is served
// as it is and counted once in trace_store_errors, by the boot; the job's
// evaluations and scores, which the journal holds, are intact. That takes
// the directory of an older binary, whose journal was a log of its own
// (olderLayout); in one log a power cut takes the records after the cut
// as well. The other job, whose lines come first, reads as before. So
// does a segment lost from the middle of an older binary's log of events,
// here one that held only job-2's first rung event, and both jobs' curves
// are served whole. In the one log, where records came before it, the
// same loss could have cost any job's records: the boot is refused,
// naming the missing segment.
func TestShortHistoryCounted(t *testing.T) {
	const job2 = `"job":"job-2"`
	lostSegment := func(t *testing.T, dir, seg string, raw []byte) {
		off, end := lineOf(t, raw, 0, job2, `"type":"rung"`)
		writeFile(t, seg, raw[:off])
		writeFile(t, filepath.Join(TraceDir(dir), "trace-000003.jsonl"), raw[end:])
	}
	for _, tc := range []struct {
		name string
		// damage rewrites the trace log the first life left in dir: seg,
		// which holds raw.
		damage func(t *testing.T, dir, seg string, raw []byte)
		whole  bool // job-2's curve is served whole
		older  bool // the damage is to an older binary's directory
	}{
		{"torn-tail", func(t *testing.T, _, seg string, raw []byte) {
			off, end := lineOf(t, raw, 3, job2)
			writeFile(t, seg, raw[:off+(end-off)/2])
		}, false, true},
		{"no-history", func(t *testing.T, _, seg string, raw []byte) {
			off, _ := lineOf(t, raw, 0, job2)
			writeFile(t, seg, raw[:off])
		}, false, true},
		{"lost-segment", lostSegment, true, true},
		{"lost-segment-one-log", lostSegment, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir()}
			m1 := bootJournaled(t, cfg)
			ts1 := httptest.NewServer(NewServer(m1))
			submitAs(t, m1, smallSpec(), "job-1")
			waitJob(t, m1, "job-1", func(s Status) bool { return s == StatusDone }, "done")
			spec := smallSpec()
			spec.Seed = 11
			submitAs(t, m1, spec, "job-2")
			waitJob(t, m1, "job-2", func(s Status) bool { return s == StatusDone }, "done")
			job1 := getBody(t, ts1.URL+"/jobs/job-1")
			was := getJob(t, ts1.URL, "job-2")
			ts1.Close()
			shutdown(t, m1)

			if tc.older {
				olderLayout(t, cfg.DataDir)
			}
			segs := traceSegments(t, cfg.DataDir)
			raw, err := os.ReadFile(segs[0])
			if err != nil || len(segs) != 1 {
				t.Fatalf("%d trace segments, %v", len(segs), err)
			}
			tc.damage(t, cfg.DataDir, segs[0], raw)

			if !tc.older {
				if m2, err := NewManagerFromJournal(cfg); err == nil || !strings.Contains(err.Error(), "missing segment trace-000002.jsonl") {
					if err == nil {
						shutdown(t, m2)
					}
					t.Fatalf("a log missing a segment after its records booted: %v", err)
				}
				return
			}
			m2 := bootJournaled(t, cfg)
			defer shutdown(t, m2)
			ts2 := httptest.NewServer(NewServer(m2))
			defer ts2.Close()
			if got := m2.Metrics().TraceStoreErrors; got != 1 {
				t.Errorf("the boot counted %d trace errors, want 1", got)
			}
			if got := getBody(t, ts2.URL+"/jobs/job-1"); !bytes.Equal(got, job1) {
				t.Errorf("job-1 differs across the restart:\n now %s\n was %s", got, job1)
			}
			now := getJob(t, ts2.URL, "job-2")
			if now.Status != StatusDone || now.Evaluations != was.Evaluations || now.BestScore == nil || *now.BestScore != *was.BestScore ||
				now.TestScore == nil || *now.TestScore != *was.TestScore {
				t.Errorf("job-2 came back %s with %d evaluations, best %v, test %v; was %d, %v, %v",
					now.Status, now.Evaluations, now.BestScore, now.TestScore, was.Evaluations, *was.BestScore, *was.TestScore)
			}
			if len(now.Curve) > len(was.Curve) || tc.whole != (len(now.Curve) == len(was.Curve)) ||
				!slices.Equal(now.Curve, was.Curve[:len(now.Curve)]) {
				t.Errorf("job-2's curve: %d points of its %d, want it whole: %v", len(now.Curve), len(was.Curve), tc.whole)
			}
			getBody(t, ts2.URL+"/jobs/job-2/trace?events=1")
			if got := m2.Metrics().TraceStoreErrors; got != 1 {
				t.Errorf("trace_store_errors = %d, want 1 for job-2's short history", got)
			}
		})
	}
}

// TestOlderRetryEventServed: a trace log an older binary wrote may hold
// retry events, from when a failed evaluation was attempted again. The
// service publishes none now, but it boots on such a log and serves each
// as it was written, attempt and error included. Here a finished job's
// first rung event is rewritten into one.
func TestOlderRetryEventServed(t *testing.T) {
	cfg := Config{PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir()}
	m1 := bootJournaled(t, cfg)
	submitAs(t, m1, smallSpec(), "job-1")
	waitJob(t, m1, "job-1", func(s Status) bool { return s == StatusDone }, "done")
	shutdown(t, m1)

	segs := traceSegments(t, cfg.DataDir)
	raw, err := os.ReadFile(segs[0])
	if err != nil || len(segs) != 1 {
		t.Fatalf("%d trace segments, %v", len(segs), err)
	}
	off, end := lineOf(t, raw, 0, `"type":"rung"`)
	var retry events.Event
	if err := json.Unmarshal(raw[off:end], &retry); err != nil {
		t.Fatal(err)
	}
	retry.Type, retry.Round, retry.Budget = events.TypeRetry, 0, 0
	retry.Attempt, retry.Error = 1, "injected: transient failure"
	line, err := json.Marshal(retry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(line, []byte(`"type":"retry"`)) || !bytes.Contains(line, []byte(`"attempt":1,"error":"injected: transient failure"}`)) {
		t.Fatalf("the rewritten line %s is not the shape older binaries wrote", line)
	}
	writeFile(t, segs[0], slices.Concat(raw[:off], line, []byte("\n"), raw[end:]))

	m2 := bootJournaled(t, cfg)
	defer shutdown(t, m2)
	ts := httptest.NewServer(NewServer(m2))
	defer ts.Close()
	var evs []events.Event
	getJSON(t, ts.URL+"/jobs/job-1/trace?events=1", &evs)
	served := 0
	for _, ev := range evs {
		if ev.Type != events.TypeRetry {
			continue
		}
		served++
		if got, _ := json.Marshal(ev); !bytes.Equal(got, line) {
			t.Errorf("served retry event %s, written %s", got, line)
		}
	}
	written := 0 // the log's event lines, not its records
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if bytes.HasPrefix(line, []byte(`{"seq":`)) && bytes.Contains(line, []byte(`"job":"job-1"`)) {
			written++
		}
	}
	if served != 1 || len(evs) != written {
		t.Errorf("served %d retry events in %d events; want 1 in every event of the log", served, len(evs))
	}
	if got := m2.Metrics().TraceStoreErrors; got != 0 {
		t.Errorf("trace_store_errors = %d on a log holding a retry event", got)
	}
}
