package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

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

// keepLines returns the lines of raw that keep holds, in order.
func keepLines(raw []byte, keep func(line []byte) bool) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if keep(line) {
			out = append(out, line...)
		}
	}
	return out
}

// TestShortHistoryCounted: the trace log is the only copy of a finished
// curve, so a history cut short — the job's events from its fourth on, or
// every one — is served as it is and counted once in trace_store_errors,
// by the boot; the job's evaluations and scores, which its records hold,
// are intact. In the one log that is event lines missing from its middle,
// which an event that did not encode (ROADMAP item 2) or whose append
// failed leaves. The other job, whose lines come first, reads as before. A segment lost
// from the middle of the log, here one that held only job-2's first rung
// event, could have cost any job's records, whatever came before it —
// records, or events alone: the boot is refused, naming the missing
// segment.
func TestShortHistoryCounted(t *testing.T) {
	const job2 = `"job":"job-2"`
	isEvent := func(line []byte) bool { return bytes.HasPrefix(line, []byte(`{"seq":`)) }
	// job2Events keeps job-2's first n event lines and every other line.
	job2Events := func(n int) func(t *testing.T, dir, seg string, raw []byte) {
		return func(t *testing.T, _, seg string, raw []byte) {
			kept := 0
			writeFile(t, seg, keepLines(raw, func(line []byte) bool {
				if !isEvent(line) || !bytes.Contains(line, []byte(job2)) {
					return true
				}
				kept++
				return kept <= n
			}))
		}
	}
	lostSegment := func(eventsAlone bool) func(t *testing.T, dir, seg string, raw []byte) {
		return func(t *testing.T, dir, seg string, raw []byte) {
			off, end := lineOf(t, raw, 0, job2, `"type":"rung"`)
			before := raw[:off]
			if eventsAlone {
				before = keepLines(before, isEvent)
			}
			writeFile(t, seg, before)
			writeFile(t, filepath.Join(TraceDir(dir), "trace-000003.jsonl"), raw[end:])
		}
	}
	for _, tc := range []struct {
		name string
		// damage rewrites the trace log the first life left in dir: seg,
		// which holds raw.
		damage  func(t *testing.T, dir, seg string, raw []byte)
		refused bool // the boot is refused, naming the missing segment
	}{
		{"torn-tail", job2Events(3), false},
		{"no-history", job2Events(0), false},
		{"lost-segment", lostSegment(true), true},
		{"lost-segment-one-log", lostSegment(false), true},
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
			tc.damage(t, cfg.DataDir, segs[0], raw)

			if tc.refused {
				if m2, err := NewManagerFromJournal(cfg); err == nil || !strings.Contains(err.Error(), "missing segment trace-000002.jsonl") {
					if err == nil {
						shutdown(t, m2)
					}
					t.Fatalf("a log missing a segment booted: %v", err)
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
			if len(now.Curve) >= len(was.Curve) || !slices.Equal(now.Curve, was.Curve[:len(now.Curve)]) {
				t.Errorf("job-2's curve: %d points of its %d, want a prefix of it, cut short", len(now.Curve), len(was.Curve))
			}
			getBody(t, ts2.URL+"/jobs/job-2/trace?events=1")
			if got := m2.Metrics().TraceStoreErrors; got != 1 {
				t.Errorf("trace_store_errors = %d, want 1 for job-2's short history", got)
			}
		})
	}
}
