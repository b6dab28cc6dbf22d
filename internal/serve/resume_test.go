package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/shipper"
	"enhancedbhpo/internal/serve/tracestore"
	"enhancedbhpo/internal/trace"
)

// canonJSON is v's JSON encoding, map keys sorted.
func canonJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestPreemptRecordStaysSmall: a preempt record carries a count, not the
// trials: preempted after 50 trials, a job journals a record of under 300
// bytes.
func TestPreemptRecordStaysSmall(t *testing.T) {
	const trials = 50
	gate, victimIn := make(chan struct{}), make(chan struct{}, 1)
	var calls atomic.Int64 // across the victim's segments
	cfg := resumeConfig(t)
	cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		stub := &stubEvaluator{inner: inner}
		if id != "job-1" {
			return stub
		}
		return funcEvaluator{inner, func(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
			if calls.Add(1) == trials {
				victimIn <- struct{}{}
				<-gate
			}
			return stub.Evaluate(c, budget, r)
		}}
	}
	m := bootJournaled(t, cfg)
	defer shutdown(t, m)
	spec := JobSpec{Tenant: "victim", Dataset: "australian", Scale: 0.06, Method: "sha", NumHPs: 4, MaxConfigs: 64, Iters: 2, Seed: 7}
	victim := submitAs(t, m, spec, "job-1")
	<-victimIn
	submitAs(t, m, tinySpec("vip", 70), "job-2")
	close(gate)
	waitJob(t, m, "job-1", func(s Status) bool { return s == StatusDone }, "done")
	if n := victim.Snapshot().Preemptions; n != 1 {
		t.Fatalf("the victim was preempted %d times; the test needs once", n)
	}
	found := 0
	_, err := tracestore.ReadAll(TraceDir(cfg.DataDir), func(line []byte) {
		var rec journal.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Type != journal.TypePreempt {
			return
		}
		found++
		if rec.Evaluations < trials || len(line) >= 300 {
			t.Errorf("preempt record after %d evaluations is %d bytes: %s", rec.Evaluations, len(line), line)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if found != 1 {
		t.Errorf("%d preempt records in the log, want 1", found)
	}
}

// TestParentCheckpointResumes: a data directory as the binary before
// count-only checkpoints left it — a finished job; job-2, preempted right
// after its first rung-1 trial, whose checkpoint embeds its trial list;
// and job-3, frozen mid-run — boots and resumes job-2 from its trace-log
// points to what that binary resumed it to: the same /trace and snapshot
// but for its finish time and the real time of the points it adds — the
// four it resumes from byte for byte. The finished job reads as that
// binary served it, and nothing is counted.
func TestParentCheckpointResumes(t *testing.T) {
	const fixture, checkpoint = "testdata/parent-preempted", 4
	cfg := resumeConfig(t)
	copyTree(t, filepath.Join(fixture, "data"), cfg.DataDir)
	m := bootJournaled(t, cfg)
	defer shutdown(t, m)
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	waitJob(t, m, "job-2", func(s Status) bool { return s == StatusDone }, "done")
	want := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if got := getBody(t, ts.URL+"/jobs/job-1"); !bytes.Equal(got, want("job-1.json")) {
		t.Errorf("GET /jobs/job-1:\n got %s\nwant %s", got, want("job-1.json"))
	}
	// The points this life adds carry their own evaluations' real time.
	var curve, wasCurve []trace.Point
	getJSON(t, ts.URL+"/jobs/job-2/trace", &curve)
	if err := json.Unmarshal(want("job-2.trace.json"), &wasCurve); err != nil {
		t.Fatal(err)
	}
	if d := curveDiff(curve, wasCurve); d != "" || !slices.Equal(curve[:checkpoint], wasCurve[:checkpoint]) {
		t.Errorf("GET /jobs/job-2/trace: %s\n got %v\nwant %v", d, curve, wasCurve)
	}
	var got, was Snapshot
	getJSON(t, ts.URL+"/jobs/job-2", &got)
	if err := json.Unmarshal(want("job-2.json"), &was); err != nil {
		t.Fatal(err)
	}
	if d := curveDiff(got.Curve, was.Curve); d != "" {
		t.Errorf("GET /jobs/job-2's curve: %s", d)
	}
	got.FinishedAt, was.FinishedAt, got.Curve, was.Curve = nil, nil, nil, nil
	if a, b := canonJSON(t, got), canonJSON(t, was); a != b {
		t.Errorf("GET /jobs/job-2 but for its finish time and curve:\n got %s\nwant %s", a, b)
	}
	if mt := m.Metrics(); mt.TraceStoreErrors != 0 || mt.JournalErrors != 0 {
		t.Errorf("%d trace errors, %d journal errors", mt.TraceStoreErrors, mt.JournalErrors)
	}
}

// TestOlderDirectoryUpgrades: the directory of TestParentCheckpointResumes,
// which an older binary journaled — a base and a journal segment beside
// the trace log — boots, resumes job-2 to done and boots again. Every body
// the second boot serves is byte for byte the first's; the older binary's
// journal files are as it left them; and a node given a shipper seals
// them at its sink in each life, once, as it seals the log's segments.
func TestOlderDirectoryUpgrades(t *testing.T) {
	const fixture = "testdata/parent-preempted/data"
	old := []string{"base-000000.jsonl", "journal-000001.jsonl"}
	cfg := resumeConfig(t)
	copyTree(t, fixture, cfg.DataDir)
	sinkDir := filepath.Join(t.TempDir(), "a")
	var was map[string][]byte
	for life := 1; life <= 2; life++ {
		sink, err := shipper.NewDirSink(sinkDir)
		if err != nil {
			t.Fatal(err)
		}
		ship := shipper.NewMulti(cfg.DataDir, []shipper.Sink{sink}, shipper.Options{})
		c := cfg
		c.Shipper = ship
		segs := len(traceSegments(t, cfg.DataDir)) // what this boot seals beside the journal files
		m := bootJournaled(t, c)
		ts := httptest.NewServer(NewServer(m))
		waitJob(t, m, "job-2", func(s Status) bool { return s == StatusDone }, "done")
		now := map[string][]byte{"/jobs": getBody(t, ts.URL+"/jobs")}
		for _, id := range []string{"job-1", "job-2", "job-3"} {
			for _, path := range []string{"/jobs/" + id, "/jobs/" + id + "/trace", "/jobs/" + id + "/trace?events=1"} {
				now[path] = getBody(t, ts.URL+path)
			}
		}
		for path, body := range was {
			if !bytes.Equal(now[path], body) {
				t.Errorf("life %d serves GET %s\n %s\nlife %d served\n %s", life, path, now[path], life-1, body)
			}
		}
		was = now
		ts.Close()
		shutdown(t, m)
		if err := ship.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := ship.Stats().SegmentsShipped; got != int64(len(old)+segs) {
			t.Errorf("life %d sealed %d files, want the %d journal files and %d log segments once each", life, got, len(old), segs)
		}
		if err := ship.Close(); err != nil {
			t.Fatal(err)
		}
		manifest, err := shipper.ReadManifest(sinkDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range old {
			if _, ok := manifest[name]; !ok {
				t.Errorf("life %d did not seal %s at its sink", life, name)
			}
		}
	}
	for _, name := range old {
		want, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(filepath.Join(cfg.DataDir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s is not as the older binary left it (%v)", name, err)
		}
	}
}
