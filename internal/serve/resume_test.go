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

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/journal"
)

// rungGate holds the job's first evaluation at a budget above its first
// one — its first trial of a higher rung — until gate closes.
type rungGate struct {
	inner   hpo.Evaluator
	gate    chan struct{}
	entered chan struct{}
	first   int
	done    bool
}

func (g *rungGate) FullBudget() int { return g.inner.FullBudget() }

func (g *rungGate) Evaluate(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if g.first == 0 {
		g.first = budget
	}
	if !g.done && budget > g.first {
		g.done = true
		g.entered <- struct{}{}
		<-g.gate
	}
	return g.inner.Evaluate(c, budget, r)
}

// resumeConfig is a one-slot journaled manager on which a vip's job
// preempts a victim's.
func resumeConfig(t *testing.T) Config {
	return Config{
		PoolSize: 1, MaxJobs: 1, MaxPending: 64, DataDir: t.TempDir(), DeterministicTiming: true,
		TenantWeights: map[string]int{"victim": 1, "vip": 8},
	}
}

// preemptInRungOne runs job-1, the victim's ASHA job, on a manager of cfg
// until it yields right after its first rung-1 trial to job-2, which then
// freezes in its first evaluation; then the manager dies. It returns the
// victim as the preemption left it.
func preemptInRungOne(t *testing.T, cfg Config) Snapshot {
	t.Helper()
	gate, victimIn := make(chan struct{}), make(chan struct{}, 1)
	release, frozen := make(chan struct{}), make(chan struct{})
	cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id == "job-1" {
			return &rungGate{inner: inner, gate: gate, entered: victimIn}
		}
		return &stubEvaluator{inner: inner, hold: release, entered: frozen}
	}
	m := bootJournaled(t, cfg)
	t.Cleanup(func() {
		close(release)
		shutdown(t, m)
	})
	victim := submitAs(t, m, wideSpec("victim"), "job-1")
	<-victimIn
	submitAs(t, m, tinySpec("vip", 70), "job-2")
	close(gate)
	<-frozen // MaxJobs is 1: the vip runs, so the victim yielded
	snap := victim.Snapshot()
	if snap.Status != StatusQueued || snap.Preemptions != 1 {
		t.Fatalf("the victim is %s after %d preemptions; the test needs it preempted once and waiting", snap.Status, snap.Preemptions)
	}
	// Kill: no Shutdown, nothing closed.
	return snap
}

// TestResumeAfterRestartKeepsRounds: a job preempted in its second rung
// and resumed after a restart goes on from the round its trace log says it
// had entered — its resumed event carries the round of its preempted
// event, and no rung it entered before is announced twice.
func TestResumeAfterRestartKeepsRounds(t *testing.T) {
	cfg := resumeConfig(t)
	preemptInRungOne(t, cfg)
	m := bootJournaled(t, cfg)
	defer shutdown(t, m)
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	waitJob(t, m, "job-1", func(s Status) bool { return s == StatusDone }, "done")
	var evs []events.Event
	getJSON(t, ts.URL+"/jobs/job-1/trace?events=1", &evs)
	rungs := map[int]int{}
	preempted, resumed := -1, -1
	for _, ev := range evs {
		switch ev.Type {
		case events.TypeRung:
			rungs[ev.Round]++
		case events.TypePreempted:
			preempted = ev.Round
		case events.TypeResumed:
			resumed = ev.Round
		}
	}
	if preempted != 1 {
		t.Fatalf("preempted in round %d; the test needs round 1", preempted)
	}
	if resumed != preempted {
		t.Errorf("resumed in round %d, preempted in round %d", resumed, preempted)
	}
	for round, n := range rungs {
		if n != 1 {
			t.Errorf("round %d announced %d times", round, n)
		}
	}
}

// TestShortHistoryResumes: a preempted job whose trace log lost the tail
// of its history to a power cut — two of its four curve points, the rung
// event and the preemption — resumes from the points the log holds and
// finishes as a never-preempted twin does: the same curve and the same
// best configuration, best and test scores. The short history counts once
// in trace_store_errors.
func TestShortHistoryResumes(t *testing.T) {
	cfg := resumeConfig(t)
	if was := preemptInRungOne(t, cfg); was.Evaluations != 4 {
		t.Fatalf("the victim was preempted after %d evaluations; the test needs 4", was.Evaluations)
	}
	segs := traceSegments(t, cfg.DataDir)
	raw, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	cut, points := -1, 0
	for off := 0; off < len(raw) && cut < 0; {
		end := off + bytes.IndexByte(raw[off:], '\n') + 1
		if line := raw[off:end]; bytes.Contains(line, []byte(`"job":"job-1"`)) && bytes.Contains(line, []byte(`"curve_point"`)) {
			if points++; points == 3 {
				cut = off
			}
		}
		off = end
	}
	if cut < 0 {
		t.Fatalf("job-1 has %d curve points in the trace log", points)
	}
	if err := os.WriteFile(segs[len(segs)-1], raw[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	m := bootJournaled(t, cfg)
	defer shutdown(t, m)
	job := waitJob(t, m, "job-1", func(s Status) bool { return s == StatusDone }, "done")
	twinMgr := NewManager(Config{PoolSize: 1, MaxJobs: 1, DeterministicTiming: true})
	defer shutdown(t, twinMgr)
	twin, err := twinMgr.SubmitToken(wideSpec("victim"), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, twinMgr, twin.ID, func(s Status) bool { return s == StatusDone }, "done")
	got, want := job.Snapshot(), twin.Snapshot()
	if got.Evaluations != want.Evaluations || !slices.Equal(got.Curve, want.Curve) {
		t.Errorf("resumed curve (%d evaluations) %v\n twin's (%d) %v", got.Evaluations, got.Curve, want.Evaluations, want.Curve)
	}
	if canonJSON(t, got.BestConfig) != canonJSON(t, want.BestConfig) || *got.BestScore != *want.BestScore || *got.TestScore != *want.TestScore {
		t.Errorf("resumed best %v = %v, test %v; twin's %v = %v, test %v",
			got.BestConfig, *got.BestScore, *got.TestScore, want.BestConfig, *want.BestScore, *want.TestScore)
	}
	if n := m.Metrics().TraceStoreErrors; n != 1 {
		t.Errorf("trace_store_errors = %d, want 1 for the short history", n)
	}
}

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
// points to what that binary resumed it to: /trace byte for byte, the
// same snapshot but for its finish time. The finished job reads as that
// binary served it, and nothing is counted.
func TestParentCheckpointResumes(t *testing.T) {
	const fixture = "testdata/parent-preempted"
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
	if got := getBody(t, ts.URL+"/jobs/job-2/trace"); !bytes.Equal(got, want("job-2.trace.json")) {
		t.Errorf("GET /jobs/job-2/trace:\n got %s\nwant %s", got, want("job-2.trace.json"))
	}
	var got, was Snapshot
	if err := json.Unmarshal(getBody(t, ts.URL+"/jobs/job-2"), &got); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want("job-2.json"), &was); err != nil {
		t.Fatal(err)
	}
	got.FinishedAt, was.FinishedAt = nil, nil
	if a, b := canonJSON(t, got), canonJSON(t, was); a != b {
		t.Errorf("GET /jobs/job-2 but for its finish time:\n got %s\nwant %s", a, b)
	}
	if mt := m.Metrics(); mt.TraceStoreErrors != 0 || mt.JournalErrors != 0 {
		t.Errorf("%d trace errors, %d journal errors", mt.TraceStoreErrors, mt.JournalErrors)
	}
}
