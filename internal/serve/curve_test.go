package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

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

// TestShortHistoryCounted: the trace log is the only copy of a finished
// curve, so a history cut short — a segment's unsynced tail lost to a power
// cut, here in the middle of a line, or every line of the job — is served
// as it is and counted once in trace_store_errors; the job's evaluations
// and scores, which the journal holds, are intact. The other job, whose
// lines come first, reads as before.
func TestShortHistoryCounted(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep int // whole lines of job-2 kept before the cut
	}{
		{"torn-tail", 3},
		{"no-history", 0},
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

			segs := traceSegments(t, cfg.DataDir)
			raw, err := os.ReadFile(segs[0])
			if err != nil || len(segs) != 1 {
				t.Fatalf("%d trace segments, %v", len(segs), err)
			}
			at, kept := -1, 0
			for off := 0; off < len(raw); {
				end := off + bytes.IndexByte(raw[off:], '\n') + 1
				if bytes.Contains(raw[off:end], []byte(`"job":"job-2"`)) {
					if kept == tc.keep {
						at = off + (end-off)/2
						if tc.keep == 0 {
							at = off
						}
						break
					}
					kept++
				}
				off = end
			}
			if at < 0 {
				t.Fatalf("job-2 has fewer than %d lines in the trace log", tc.keep+1)
			}
			if err := os.WriteFile(segs[0], raw[:at], 0o644); err != nil {
				t.Fatal(err)
			}

			m2 := bootJournaled(t, cfg)
			defer shutdown(t, m2)
			ts2 := httptest.NewServer(NewServer(m2))
			defer ts2.Close()
			if got := getBody(t, ts2.URL+"/jobs/job-1"); !bytes.Equal(got, job1) {
				t.Errorf("job-1 differs across the restart:\n now %s\n was %s", got, job1)
			}
			now := getJob(t, ts2.URL, "job-2")
			if now.Status != StatusDone || now.Evaluations != was.Evaluations || now.BestScore == nil || *now.BestScore != *was.BestScore ||
				now.TestScore == nil || *now.TestScore != *was.TestScore {
				t.Errorf("job-2 came back %s with %d evaluations, best %v, test %v; was %d, %v, %v",
					now.Status, now.Evaluations, now.BestScore, now.TestScore, was.Evaluations, *was.BestScore, *was.TestScore)
			}
			if len(now.Curve) >= len(was.Curve) || !slices.Equal(now.Curve, was.Curve[:len(now.Curve)]) {
				t.Errorf("job-2's curve: %d points, want a prefix of its %d", len(now.Curve), len(was.Curve))
			}
			getBody(t, ts2.URL+"/jobs/job-2/trace?events=1")
			if got := m2.Metrics().TraceStoreErrors; got != 1 {
				t.Errorf("trace_store_errors = %d, want 1 for job-2's short history", got)
			}
		})
	}
}
