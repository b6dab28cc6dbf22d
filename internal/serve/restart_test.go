package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

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
// behaves normally.
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
		PoolSize: 2, MaxJobs: 2, FailureBudget: 2,
		WrapEvaluator: wrap,
	})
	t.Cleanup(func() { shutdown(t, m) })
	bad := submitAs(t, m, smallSpec(), "job-1")
	goodSpec := smallSpec()
	goodSpec.Seed = 11
	good := submitAs(t, m, goodSpec, "job-2")

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

// TestFailedEvaluationIsDefinitive: an evaluation is a deterministic
// function of its configuration, budget and RNG stream, so one that fails
// — by an error or by a panic — is not attempted again: its trial is
// charged to the failure budget at once, the job finishes, and its trace
// holds the charge and no retry.
func TestFailedEvaluationIsDefinitive(t *testing.T) {
	for _, tc := range []struct {
		name   string
		panics bool
	}{{"error", false}, {"panic", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var failed string // the failing trial's configuration and budget
			calls := map[string]int{}
			wrap := func(_ string, inner hpo.Evaluator) hpo.Evaluator {
				return funcEvaluator{inner, func(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
					trial := fmt.Sprint(cfg, budget)
					mu.Lock()
					calls[trial]++
					first := failed == ""
					if first {
						failed = trial
					}
					mu.Unlock()
					if first {
						if tc.panics {
							panic("injected: panic")
						}
						return nil, errors.New("injected: failure")
					}
					return inner.Evaluate(cfg, budget, r)
				}}
			}
			m := NewManager(Config{PoolSize: 2, MaxJobs: 1, WrapEvaluator: wrap})
			t.Cleanup(func() { shutdown(t, m) })
			ts := httptest.NewServer(NewServer(m))
			defer ts.Close()
			job := submitAs(t, m, smallSpec(), "job-1")
			waitJob(t, m, job.ID, terminal, "terminal")

			mu.Lock()
			if calls[failed] != 1 {
				t.Errorf("the failing trial was evaluated %d times, want 1", calls[failed])
			}
			mu.Unlock()
			snap := getJob(t, ts.URL, job.ID)
			if snap.Status != StatusDone {
				t.Fatalf("job ended %s (%s): one failed trial aborted the run", snap.Status, snap.Error)
			}
			var metrics Metrics
			getJSON(t, ts.URL+"/metrics", &metrics)
			if snap.Failures != 1 || metrics.TrialFailures != 1 {
				t.Errorf("failures %d, trial_failures %d; want 1 and 1", snap.Failures, metrics.TrialFailures)
			}
			var evs []events.Event
			getJSON(t, ts.URL+"/jobs/job-1/trace?events=1", &evs)
			seen := map[events.Type]int{}
			for _, ev := range evs {
				seen[ev.Type]++
			}
			if seen[events.TypeFailure] != 1 || seen["retry"] != 0 {
				t.Errorf("the trace holds %d failure_budget and %d retry events; want 1 and 0", seen[events.TypeFailure], seen["retry"])
			}
		})
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

// TestFailureBudgetAbsorbsTrial: a failed evaluation fails only its trial
// (worst-case score) while the job still completes.
func TestFailureBudgetAbsorbsTrial(t *testing.T) {
	wrap := func(id string, inner hpo.Evaluator) hpo.Evaluator {
		// Panics on the first call: the first trial, a definitive — but
		// absorbed — failure.
		return &flakyEvaluator{inner: inner, failFirst: 1, panics: true}
	}
	m := NewManager(Config{
		PoolSize: 2, MaxJobs: 1, FailureBudget: 3,
		WrapEvaluator: wrap,
	})
	t.Cleanup(func() { shutdown(t, m) })
	spec := smallSpec()
	spec.Workers = 1 // sequential evaluations: call 1 is the first trial
	job := submitAs(t, m, spec, "job-1")
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
// "timeout", not a bare cancelled. Every evaluation takes 50 ms, so the
// job outlives its 0.3 s however fast the machine trains.
func TestTimeoutReason(t *testing.T) {
	m := NewManager(Config{PoolSize: 2, MaxJobs: 1, WrapEvaluator: func(_ string, inner hpo.Evaluator) hpo.Evaluator {
		return sleepEvaluator{inner: inner, d: 50 * time.Millisecond}
	}})
	t.Cleanup(func() { shutdown(t, m) })
	spec := bigSpec()
	spec.TimeoutSec = 0.3
	job := submitAs(t, m, spec, "job-1")
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
		jobs = append(jobs, submitAs(t, m, spec, fmt.Sprintf("job-%d", i+1)))
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
	t.Cleanup(func() { shutdown(t, m) })
	s := NewServer(m)
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub := postJob(t, ts.URL, smallSpec())
	s.SetDraining(true)

	if code, _ := httpDo(t, http.MethodPost, ts.URL+"/jobs", `{"dataset":"australian","method":"sha"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("draining POST /jobs: status %d, want 503", code)
	}

	// Reads still work while draining.
	if snap := getJob(t, ts.URL, sub.ID); snap.ID != sub.ID {
		t.Fatalf("draining GET: %+v", snap)
	}
	var health healthBody
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "draining" {
		t.Fatalf("healthz while draining: %q", health.Status)
	}

	s.SetDraining(false)
	if code, _ := httpDo(t, http.MethodPost, ts.URL+"/jobs", `{"dataset":"australian","method":"sha","scale":0.06,"iters":2,"hps":2,"max_configs":4}`); code != http.StatusAccepted {
		t.Fatalf("post-drain POST /jobs: status %d, want 202", code)
	}
}
