package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/serve/shipper"
)

// fetchTraces returns, for every job, the body of GET /jobs/{id}/trace
// followed by that of ?events=1 — what a client can see of a trace.
func fetchTraces(t *testing.T, base string, ids []string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, id := range ids {
		for _, query := range []string{"", "?events=1"} {
			resp, err := http.Get(base + "/jobs/" + id + "/trace" + query)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /jobs/%s/trace%s: status %d, %v", id, query, resp.StatusCode, err)
			}
			out[id] = append(out[id], body...)
		}
	}
	return out
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// traceSegments lists the trace segments a data directory holds.
func traceSegments(t *testing.T, dataDir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(TraceDir(dataDir), "trace-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestTraceByteIdenticalAcrossRebuild: a job whose trace holds rung and
// retry events as well as its curve finishes, the process dies, and a
// manager rebuilt from the journal serves GET /jobs/{id}/trace — curve
// and raw events — byte for byte as before: a sealed segment is never
// rewritten, so nothing observational is shed, whatever the segment size.
// With 1 KiB segments the job's events straddle several.
func TestTraceByteIdenticalAcrossRebuild(t *testing.T) {
	for name, traceMax := range map[string]int64{"one-segment": 0, "straddling": 1 << 10} {
		t.Run(name, func(t *testing.T) {
			cfg := Config{
				PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir(), TraceMaxBytes: traceMax,
				EvalAttempts: 2, RetryBackoff: time.Millisecond,
				WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
					return &flakyEvaluator{inner: inner, failFirst: 1}
				},
			}
			m1, err := NewManagerFromJournal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(NewServer(m1))
			job, err := m1.Submit(smallSpec())
			if err != nil {
				t.Fatal(err)
			}
			waitJob(t, m1, job.ID, func(s Status) bool { return s == StatusDone }, "done")
			before := fetchTraces(t, ts1.URL, []string{job.ID})
			ts1.Close()
			// Kill: no Shutdown, no journal or trace-store close.

			seen := map[events.Type]bool{}
			for _, ev := range m1.hub.Since(job.ID, 0) {
				seen[ev.Type] = true
			}
			if !seen[events.TypeRung] || !seen[events.TypeRetry] || !seen[events.TypeCurvePoint] {
				t.Fatalf("the job's trace lacks a rung, retry or curve event: %v", seen)
			}
			if n := len(traceSegments(t, cfg.DataDir)); (traceMax > 0) != (n > 1) {
				t.Fatalf("%d trace segments at TraceMaxBytes %d", n, traceMax)
			}

			cfg.WrapEvaluator = nil
			m2, err := NewManagerFromJournal(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(NewServer(m2))
			defer shutdown(t, m2)
			defer ts2.Close()
			after := fetchTraces(t, ts2.URL, []string{job.ID})
			if !bytes.Equal(before[job.ID], after[job.ID]) {
				t.Fatalf("trace differs across the rebuild:\n before %s\n after  %s", before[job.ID], after[job.ID])
			}
			if got := m2.Metrics(); got.EventsPublished != 0 || got.TraceStoreErrors != 0 {
				t.Fatalf("the rebuild published %d events (a whole trace needs none re-issued) with %d trace errors",
					got.EventsPublished, got.TraceStoreErrors)
			}
		})
	}
}

// TestNoPerJobSeal is the count the shared log exists for: 200 finished
// jobs leave a replica whose manifest lists bases and rotated segments
// only — nothing per job, so its length does not grow with the number of
// jobs — through a directory sink and through the peer-push receiver,
// with and without trace rotations. The replica is still whole: restored
// into an empty directory, a manager booted on it serves every job's
// trace byte for byte.
func TestNoPerJobSeal(t *testing.T) {
	const jobs = 200
	for _, tc := range []struct {
		name     string
		peer     bool
		traceMax int64
	}{
		{"dir", false, 0},
		{"dir-rotating", false, 64 << 10},
		{"peer-rotating", true, 64 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dataDir, sinkRoot := t.TempDir(), t.TempDir()
			var sink shipper.Sink
			if tc.peer {
				recv, err := shipper.NewReceiver(sinkRoot)
				if err != nil {
					t.Fatal(err)
				}
				hs := httptest.NewServer(http.StripPrefix("/ship", recv))
				defer hs.Close()
				if sink, err = shipper.NewHTTPSink(hs.URL+"/ship", "a", nil); err != nil {
					t.Fatal(err)
				}
			} else {
				var err error
				if sink, err = shipper.NewDirSink(filepath.Join(sinkRoot, "a")); err != nil {
					t.Fatal(err)
				}
			}
			ship := shipper.New(dataDir, sink, shipper.Options{})
			m1, err := NewManagerFromJournal(Config{
				PoolSize: 2, MaxJobs: 2, MaxPending: jobs, DataDir: dataDir, NodeName: "a",
				Shipper: ship, TraceMaxBytes: tc.traceMax,
			})
			if err != nil {
				t.Fatal(err)
			}
			ts1 := httptest.NewServer(NewServer(m1))
			ids := make([]string, jobs)
			for i := range ids {
				job, err := m1.Submit(smallSpec()) // one scope: all but the first run on cache hits
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = job.ID
			}
			for _, id := range ids {
				waitJob(t, m1, id, func(s Status) bool { return s == StatusDone }, "done")
			}
			before := fetchTraces(t, ts1.URL, ids)
			ts1.Close()
			active := m1.traces.ActiveSegment()
			shutdown(t, m1)
			if err := ship.Close(); err != nil {
				t.Fatal(err)
			}

			// What may be sealed, counted on the node's own disk: bases,
			// rotated journal segments, rotated trace segments.
			final := 0
			for _, pattern := range []string{"base-*.jsonl", "journal-*.jsonl"} {
				names, _ := filepath.Glob(filepath.Join(dataDir, pattern))
				final += len(names)
			}
			final-- // the active journal segment
			rotations := 0
			for _, name := range traceSegments(t, dataDir) {
				if filepath.Base(name) != active {
					rotations++
				}
			}
			if (tc.traceMax > 0) != (rotations > 0) {
				t.Fatalf("%d trace rotations at TraceMaxBytes %d", rotations, tc.traceMax)
			}
			replica := filepath.Join(sinkRoot, "a")
			manifest, err := shipper.ReadManifest(replica)
			if err != nil {
				t.Fatal(err)
			}
			for name := range manifest {
				if strings.Contains(name, "job-") {
					t.Errorf("manifest lists a per-job file: %s", name)
				}
			}
			if len(manifest) > final+rotations || len(manifest) >= jobs/10 {
				t.Fatalf("manifest holds %d entries for %d jobs; the node sealed %d journal files and %d trace segments",
					len(manifest), jobs, final, rotations)
			}
			if got := ship.Stats().SegmentsShipped; got > int64(final+rotations) {
				t.Fatalf("segments_shipped = %d, above %d journal files + %d trace rotations", got, final, rotations)
			}

			restored := filepath.Join(t.TempDir(), "restored")
			if _, err := shipper.Restore([]string{replica}, restored); err != nil {
				t.Fatal(err)
			}
			sink2, err := shipper.NewDirSink(filepath.Join(sinkRoot, "second-life"))
			if err != nil {
				t.Fatal(err)
			}
			ship2 := shipper.New(restored, sink2, shipper.Options{})
			defer ship2.Close()
			m2, err := NewManagerFromJournal(Config{PoolSize: 2, MaxJobs: 2, DataDir: restored, NodeName: "a", Shipper: ship2})
			if err != nil {
				t.Fatal(err)
			}
			ts2 := httptest.NewServer(NewServer(m2))
			defer shutdown(t, m2)
			defer ts2.Close()
			after := fetchTraces(t, ts2.URL, ids)
			for _, id := range ids {
				if !bytes.Equal(before[id], after[id]) {
					t.Fatalf("trace of %s differs on the restored replica:\n before %s\n after  %s", id, before[id], after[id])
				}
			}
			if _, err := os.Stat(filepath.Join(TraceDir(restored), active)); tc.traceMax == 0 && err != nil {
				t.Fatalf("the unsealed trace segment did not reach the restored directory: %v", err)
			}
			// The new life writes a segment of its own, so what the last one
			// left open is final now and its boot seals it, once, not per job.
			if err := ship2.Flush(); err != nil {
				t.Fatal(err)
			}
			manifest2, err := shipper.ReadManifest(filepath.Join(sinkRoot, "second-life"))
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range traceSegments(t, restored) {
				if _, ok := manifest2["traces/"+filepath.Base(name)]; !ok {
					t.Errorf("the restored node's boot did not seal %s", filepath.Base(name))
				}
			}
			if len(manifest2) >= jobs/10 {
				t.Errorf("the restored node's boot sealed %d files for %d jobs", len(manifest2), jobs)
			}
		})
	}
}
