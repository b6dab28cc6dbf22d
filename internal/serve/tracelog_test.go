package serve

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/serve/seglog"
	"enhancedbhpo/internal/serve/shipper"
)

// fetchTraces returns, for every job, the body of GET /jobs/{id}/trace
// followed by that of ?events=1 — what a client can see of a trace.
func fetchTraces(t *testing.T, base string, ids []string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, id := range ids {
		url := base + "/jobs/" + id + "/trace"
		out[id] = append(getBody(t, url), getBody(t, url+"?events=1")...)
	}
	return out
}

func shutdown(t testing.TB, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// traceSegments lists the trace segments a data directory holds.
func traceSegments(t testing.TB, dataDir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(TraceDir(dataDir), "trace-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestNoPerJobSeal is the count the shared log exists for: 200 finished
// jobs leave a replica whose manifest lists rotated segments only —
// nothing per job, so its length does not grow with the number of
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
			ship := shipper.NewMulti(dataDir, []shipper.Sink{sink}, shipper.Options{})
			m1 := bootJournaled(t, Config{
				PoolSize: 2, MaxJobs: 2, MaxPending: jobs, DataDir: dataDir, NodeName: "a",
				Shipper: ship, TraceMaxBytes: tc.traceMax,
			})
			ts1 := httptest.NewServer(NewServer(m1))
			ids := make([]string, jobs)
			for i := range ids {
				job, err := m1.SubmitToken(smallSpec(), "") // one scope: all but the first run on cache hits
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
			shutdown(t, m1)
			if err := ship.Close(); err != nil {
				t.Fatal(err)
			}

			// What may be sealed, counted on the node's own disk: the rotated
			// segments of the log. A segment was sealed if it reached its
			// size; the one that did not is the growing one. The node wrote
			// no journal file.
			if old, _ := filepath.Glob(filepath.Join(dataDir, "*.jsonl")); len(old) > 0 {
				t.Fatalf("the node wrote journal files: %v", old)
			}
			segs, err := seglog.List(TraceDir(dataDir), "trace-")
			if err != nil {
				t.Fatal(err)
			}
			rotations, active := 0, ""
			for _, seg := range segs {
				if tc.traceMax > 0 && seg.Size >= tc.traceMax {
					rotations++
				} else {
					active = seg.Name
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
			if len(manifest) > rotations || len(manifest) >= jobs/10 {
				t.Fatalf("manifest holds %d entries for %d jobs; the node sealed %d segments",
					len(manifest), jobs, rotations)
			}
			if got := ship.Stats().SegmentsShipped; got > int64(rotations) {
				t.Fatalf("segments_shipped = %d, above %d rotations", got, rotations)
			}

			restored := filepath.Join(t.TempDir(), "restored")
			if _, err := shipper.Restore([]string{replica}, restored); err != nil {
				t.Fatal(err)
			}
			sink2, err := shipper.NewDirSink(filepath.Join(sinkRoot, "second-life"))
			if err != nil {
				t.Fatal(err)
			}
			ship2 := shipper.NewMulti(restored, []shipper.Sink{sink2}, shipper.Options{})
			defer ship2.Close()
			m2 := bootJournaled(t, Config{PoolSize: 2, MaxJobs: 2, DataDir: restored, NodeName: "a", Shipper: ship2})
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
