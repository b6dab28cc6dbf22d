package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// jsonDecode drains a response body into v.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// waitJob polls a job until its status satisfies want.
func waitJob(t *testing.T, m *Manager, id string, want func(Status) bool, desc string) *Job {
	t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s missing", id)
		}
		if want(j.Status()) {
			return j
		}
		time.Sleep(10 * time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (last: %s)", id, desc, j.Status())
	panic("unreachable")
}

// gateEvaluator blocks every evaluation on a gate channel — the
// fault-injection hook uses it to freeze a job mid-run so the test can
// simulate a daemon killed with an evaluation in flight.
type gateEvaluator struct {
	inner   hpo.Evaluator
	gate    chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (g *gateEvaluator) FullBudget() int { return g.inner.FullBudget() }

func (g *gateEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.inner.Evaluate(cfg, budget, r)
}

// panicEvaluator panics on every evaluation, imitating an adversarial
// config driving the MLP into a degenerate shape.
type panicEvaluator struct{ inner hpo.Evaluator }

func (p panicEvaluator) FullBudget() int { return p.inner.FullBudget() }

func (p panicEvaluator) Evaluate(search.Config, int, *rng.RNG) ([]float64, error) {
	panic("injected: degenerate network shape")
}

// flakyEvaluator fails (or panics) on the first failFirst calls, then
// behaves normally — a transient fault for the retry path.
type flakyEvaluator struct {
	inner     hpo.Evaluator
	failFirst int64
	panics    bool
	calls     atomic.Int64
}

func (f *flakyEvaluator) FullBudget() int { return f.inner.FullBudget() }

func (f *flakyEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if f.calls.Add(1) <= f.failFirst {
		if f.panics {
			panic("injected: transient panic")
		}
		return nil, errors.New("injected: transient failure")
	}
	return f.inner.Evaluate(cfg, budget, r)
}

// TestRestartRecovery is the kill/restart e2e: a manager with three jobs
// (one finished, one frozen mid-evaluation, one still queued) is
// abandoned without shutdown — the moral equivalent of kill -9 — and a
// second manager recovers the same data dir. The finished job must come
// back with its anytime curve and scores intact, the mid-run job must be
// marked cancelled/interrupted, and the queued job must be re-enqueued
// and run to completion.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	entered := make(chan struct{})
	gateEv := &gateEvaluator{gate: gate, entered: entered}
	wrap := func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id == "job-2" {
			gateEv.inner = inner
			return gateEv
		}
		return inner
	}
	m1, err := NewManagerFromJournal(Config{PoolSize: 2, MaxJobs: 1, DataDir: dir, WrapEvaluator: wrap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m1.Shutdown(ctx); err != nil {
			t.Errorf("m1 shutdown: %v", err)
		}
	})

	// job-1 runs to completion; its terminal record is fsynced.
	j1, err := m1.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m1, j1.ID, func(s Status) bool { return s == StatusDone }, "done")
	snap1 := j1.Snapshot()
	if len(snap1.Curve) == 0 || snap1.BestScore == nil || snap1.TestScore == nil {
		t.Fatalf("job-1 finished without results: %+v", snap1)
	}

	// job-2 freezes inside its first evaluation (mid-run at the "crash").
	spec2 := smallSpec()
	spec2.Seed = 11
	j2, err := m1.SubmitToken(spec2, "")
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID != "job-2" {
		t.Fatalf("second job is %s", j2.ID)
	}
	<-entered
	waitJob(t, m1, j2.ID, func(s Status) bool { return s == StatusRunning }, "running")

	// job-3 stays queued behind MaxJobs=1.
	spec3 := smallSpec()
	spec3.Seed = 17
	j3, err := m1.SubmitToken(spec3, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := j3.Status(); got != StatusQueued {
		t.Fatalf("third job status %s, want queued", got)
	}

	// "Kill" the daemon: no shutdown, no journal close. Recover the same
	// data dir in a fresh manager (no fault injection this time).
	m2, err := NewManagerFromJournal(Config{PoolSize: 2, MaxJobs: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m2.Shutdown(ctx); err != nil {
			t.Errorf("m2 shutdown: %v", err)
		}
	})

	// Finished job: terminal results and anytime curve preserved.
	r1, ok := m2.Get("job-1")
	if !ok {
		t.Fatal("job-1 lost across restart")
	}
	rs1 := r1.Snapshot()
	if rs1.Status != StatusDone {
		t.Fatalf("recovered job-1 status %s", rs1.Status)
	}
	if len(rs1.Curve) != len(snap1.Curve) {
		t.Fatalf("curve %d points, want %d", len(rs1.Curve), len(snap1.Curve))
	}
	for i := range snap1.Curve {
		if rs1.Curve[i] != snap1.Curve[i] {
			t.Fatalf("curve point %d: %+v != %+v", i, rs1.Curve[i], snap1.Curve[i])
		}
	}
	if rs1.BestScore == nil || *rs1.BestScore != *snap1.BestScore {
		t.Fatalf("best score lost: %v != %v", rs1.BestScore, snap1.BestScore)
	}
	if rs1.TestScore == nil || *rs1.TestScore != *snap1.TestScore {
		t.Fatalf("test score lost: %v != %v", rs1.TestScore, snap1.TestScore)
	}
	if rs1.Evaluations != snap1.Evaluations {
		t.Fatalf("evaluations %d, want %d", rs1.Evaluations, snap1.Evaluations)
	}
	for k, v := range snap1.BestConfig {
		if fmt.Sprint(rs1.BestConfig[k]) != fmt.Sprint(v) {
			t.Fatalf("best config differs at %s: %v != %v", k, rs1.BestConfig[k], v)
		}
	}

	// Mid-run job: marked interrupted.
	r2, ok := m2.Get("job-2")
	if !ok {
		t.Fatal("job-2 lost across restart")
	}
	rs2 := r2.Snapshot()
	if rs2.Status != StatusCancelled || rs2.Reason != ReasonInterrupted {
		t.Fatalf("recovered job-2: status %s reason %q", rs2.Status, rs2.Reason)
	}

	// Queued job: re-enqueued and replayed to completion for real.
	r3 := waitJob(t, m2, "job-3", func(s Status) bool { return s == StatusDone }, "done after replay")
	rs3 := r3.Snapshot()
	if rs3.Evaluations == 0 || rs3.BestScore == nil {
		t.Fatalf("replayed job-3 has no results: %+v", rs3)
	}
	if rs3.Spec.Seed != 17 {
		t.Fatalf("replayed job-3 spec seed %d, want 17", rs3.Spec.Seed)
	}

	// Fresh submissions continue the ID sequence past recovered jobs.
	j4, err := m2.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID != "job-4" {
		t.Fatalf("post-recovery submission got ID %s, want job-4", j4.ID)
	}
}

// TestPanicIsolation verifies fault isolation on the shared pool: a job
// whose every evaluation panics must fail alone — with the captured
// stack in its record — while a sibling job sharing the pool finishes.
func TestPanicIsolation(t *testing.T) {
	wrap := func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id == "job-1" {
			return panicEvaluator{inner: inner}
		}
		return inner
	}
	m := NewManager(Config{
		PoolSize: 2, MaxJobs: 2,
		EvalAttempts: 2, RetryBackoff: time.Millisecond, FailureBudget: 2,
		WrapEvaluator: wrap,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	bad, err := m.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	goodSpec := smallSpec()
	goodSpec.Seed = 11
	good, err := m.SubmitToken(goodSpec, "")
	if err != nil {
		t.Fatal(err)
	}

	waitJob(t, m, bad.ID, terminal, "terminal")
	waitJob(t, m, good.ID, terminal, "terminal")

	bs := bad.Snapshot()
	if bs.Status != StatusFailed {
		t.Fatalf("panicking job ended %s (%s)", bs.Status, bs.Error)
	}
	if !strings.Contains(bs.Error, "panicked") {
		t.Fatalf("failed job error %q does not mention the panic", bs.Error)
	}
	if !strings.Contains(bs.Stack, "goroutine") {
		t.Fatalf("failed job record has no captured stack (got %q)", bs.Stack)
	}
	if bs.Failures <= 2 {
		t.Fatalf("failure budget never exceeded: %d failures", bs.Failures)
	}

	gs := good.Snapshot()
	if gs.Status != StatusDone {
		t.Fatalf("sibling job ended %s (%s) — panic leaked across jobs", gs.Status, gs.Error)
	}
	if gs.BestScore == nil || gs.TestScore == nil {
		t.Fatalf("sibling job missing results: %+v", gs)
	}
	if m.Metrics().TrialFailures < 3 {
		t.Fatalf("trial failures metric: %+v", m.Metrics())
	}
}

// TestTransientFailureRetried: a fault that clears after one attempt is
// absorbed by the retry, costing no failure budget.
func TestTransientFailureRetried(t *testing.T) {
	var flaky *flakyEvaluator
	wrap := func(id string, inner hpo.Evaluator) hpo.Evaluator {
		flaky = &flakyEvaluator{inner: inner, failFirst: 1}
		return flaky
	}
	m := NewManager(Config{
		PoolSize: 2, MaxJobs: 1,
		EvalAttempts: 2, RetryBackoff: time.Millisecond,
		WrapEvaluator: wrap,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	job, err := m.SubmitToken(smallSpec(), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID, terminal, "terminal")
	snap := job.Snapshot()
	if snap.Status != StatusDone {
		t.Fatalf("job ended %s (%s) despite retry", snap.Status, snap.Error)
	}
	if snap.Failures != 0 {
		t.Fatalf("transient fault charged the failure budget: %d", snap.Failures)
	}
	if m.Metrics().TrialFailures != 0 {
		t.Fatalf("transient fault counted as trial failure: %+v", m.Metrics())
	}
	if flaky.calls.Load() < 2 {
		t.Fatalf("no retry happened: %d calls", flaky.calls.Load())
	}
}

// funcEvaluator evaluates through eval, whatever it makes of inner.
type funcEvaluator struct {
	inner hpo.Evaluator
	eval  func(search.Config, int, *rng.RNG) ([]float64, error)
}

func (f funcEvaluator) FullBudget() int { return f.inner.FullBudget() }

func (f funcEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	return f.eval(cfg, budget, r)
}

// TestRetryBackoffReleasesSlot: an evaluation sleeping out its retry
// backoff holds no evaluation slot. On a one-slot pool, job A's first
// attempt fails with job B already running; B's evaluation has trained and
// returned by the time A's retry gets the slot back — not after it.
func TestRetryBackoffReleasesSlot(t *testing.T) {
	gate, entered := make(chan struct{}), make(chan struct{})
	var aCalls, bDone, bDoneAtRetry atomic.Int64
	wrap := func(id string, inner hpo.Evaluator) hpo.Evaluator {
		if id != "job-1" {
			return funcEvaluator{inner, func(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
				scores, err := inner.Evaluate(cfg, budget, r)
				bDone.Add(1)
				return scores, err
			}}
		}
		return funcEvaluator{inner, func(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
			switch aCalls.Add(1) {
			case 1:
				close(entered)
				<-gate
				return nil, errors.New("injected: transient failure")
			case 2:
				bDoneAtRetry.Store(bDone.Load())
			}
			return inner.Evaluate(cfg, budget, r)
		}}
	}
	m := NewManager(Config{
		PoolSize: 1, MaxJobs: 2,
		EvalAttempts: 2, RetryBackoff: 300 * time.Millisecond,
		WrapEvaluator: wrap,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	a, err := m.SubmitToken(tinySpec("a", 1), "")
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	b, err := m.SubmitToken(tinySpec("b", 2), "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, b.ID, func(s Status) bool { return s == StatusRunning }, "running")
	close(gate)
	for _, job := range []*Job{a, b} {
		waitJob(t, m, job.ID, terminal, "terminal")
		if snap := job.Snapshot(); snap.Status != StatusDone || snap.Failures != 0 {
			t.Errorf("%s ended %s with %d failures (%s)", job.ID, snap.Status, snap.Failures, snap.Error)
		}
	}
	if aCalls.Load() != 2 {
		t.Fatalf("job A's evaluation was attempted %d times, want 2", aCalls.Load())
	}
	if bDoneAtRetry.Load() == 0 {
		t.Error("job B's evaluation had not run when job A's retry began: A slept out its backoff holding the only slot")
	}
}

// TestFailureBudgetAbsorbsTrial: a fault that survives every retry fails
// only its trial (worst-case score) while the job still completes.
func TestFailureBudgetAbsorbsTrial(t *testing.T) {
	wrap := func(id string, inner hpo.Evaluator) hpo.Evaluator {
		// Panics on the first two calls: both attempts of the first
		// trial, making it a definitive — but absorbed — failure.
		return &flakyEvaluator{inner: inner, failFirst: 2, panics: true}
	}
	m := NewManager(Config{
		PoolSize: 2, MaxJobs: 1,
		EvalAttempts: 2, RetryBackoff: time.Millisecond, FailureBudget: 3,
		WrapEvaluator: wrap,
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	spec := smallSpec()
	spec.Workers = 1 // sequential evaluations: calls 1..2 are one trial's attempts
	job, err := m.SubmitToken(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID, terminal, "terminal")
	snap := job.Snapshot()
	if snap.Status != StatusDone {
		t.Fatalf("job ended %s (%s): absorbed failure aborted the run", snap.Status, snap.Error)
	}
	if snap.Failures != 1 {
		t.Fatalf("%d failures recorded, want 1", snap.Failures)
	}
	if !strings.Contains(snap.Stack, "goroutine") {
		t.Fatal("absorbed failure left no stack in the job record")
	}
	if got := m.Metrics().TrialFailures; got != 1 {
		t.Fatalf("trial failures metric %d, want 1", got)
	}
}

// TestTimeoutReason: a job killed by its own TimeoutSec reports reason
// "timeout", not a bare cancelled.
func TestTimeoutReason(t *testing.T) {
	m := NewManager(Config{PoolSize: 2, MaxJobs: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	spec := bigSpec()
	spec.TimeoutSec = 0.3
	job, err := m.SubmitToken(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID, terminal, "terminal")
	snap := job.Snapshot()
	if snap.Status != StatusCancelled || snap.Reason != ReasonTimeout {
		t.Fatalf("timed-out job: status %s reason %q", snap.Status, snap.Reason)
	}
}

// TestShutdownWithInFlightJobs drives Manager.Shutdown while jobs are
// mid-run (run under -race via make check): it must cancel them with
// reason "shutdown" and return without deadlock.
func TestShutdownWithInFlightJobs(t *testing.T) {
	m := NewManager(Config{PoolSize: 2, MaxJobs: 4})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		spec := bigSpec()
		spec.Seed = uint64(i + 1)
		j, err := m.SubmitToken(spec, "")
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	waitJob(t, m, jobs[0].ID, func(s Status) bool { return s == StatusRunning }, "running")

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with in-flight jobs: %v", err)
	}
	for _, j := range jobs {
		snap := j.Snapshot()
		if !terminal(snap.Status) {
			t.Fatalf("job %s left %s after shutdown", j.ID, snap.Status)
		}
		if snap.Status == StatusCancelled && snap.Reason != ReasonShutdown {
			t.Fatalf("job %s cancelled with reason %q, want shutdown", j.ID, snap.Reason)
		}
	}
}

// TestDrainRefusesSubmissions: a draining server 503s new jobs, keeps
// serving reads, and reports draining on the health probe.
func TestDrainRefusesSubmissions(t *testing.T) {
	m := NewManager(Config{PoolSize: 1, MaxJobs: 1})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	s := NewServer(m)
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub := postJob(t, ts.URL, smallSpec())
	s.SetDraining(true)

	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"dataset":"australian","method":"sha"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /jobs: status %d, want 503", resp.StatusCode)
	}

	// Reads still work while draining.
	if snap := getJob(t, ts.URL, sub.ID); snap.ID != sub.ID {
		t.Fatalf("draining GET: %+v", snap)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := jsonDecode(hresp, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "draining" {
		t.Fatalf("healthz while draining: %q", health.Status)
	}

	s.SetDraining(false)
	resp2, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"dataset":"australian","method":"sha","scale":0.06,"iters":2,"hps":2,"max_configs":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("post-drain POST /jobs: status %d, want 202", resp2.StatusCode)
	}
}
