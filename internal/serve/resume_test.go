package serve

import (
	"bufio"
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
	files, err := filepath.Glob(filepath.Join(cfg.DataDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := bufio.NewScanner(f)
		for lines.Scan() {
			var rec journal.Record
			if err := json.Unmarshal(lines.Bytes(), &rec); err != nil {
				t.Fatalf("%s: %v", filepath.Base(path), err)
			}
			if rec.Type != journal.TypePreempt {
				continue
			}
			found++
			if rec.Evaluations < trials || len(lines.Bytes()) >= 300 {
				t.Errorf("preempt record after %d evaluations is %d bytes: %s", rec.Evaluations, len(lines.Bytes()), lines.Bytes())
			}
		}
		f.Close()
	}
	if found != 1 {
		t.Errorf("%d preempt records in the journal, want 1", found)
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
