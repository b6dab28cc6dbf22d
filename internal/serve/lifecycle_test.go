package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/journal"
)

// lifeLine is one lifecycle step as a log holds it: a journal record's
// type, status and reason, or a status-family event's type, status,
// reason and terminal flag.
type lifeLine struct {
	Type, Status, Reason string
	Terminal             bool
}

// jobJournal returns a job's journal records in replay order, segment by
// segment, skipping event records.
func jobJournal(t *testing.T, dir, id string) []lifeLine {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var out []lifeLine
	for _, path := range segs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(raw, []byte("\n")) {
			if len(line) == 0 {
				continue
			}
			var rec journal.Record
			if err := json.Unmarshal(line, &rec); err != nil {
				t.Fatalf("%s: %v", filepath.Base(path), err)
			}
			if rec.JobID == id && rec.Type != journal.TypeEvent {
				out = append(out, lifeLine{Type: rec.Type, Status: rec.Status, Reason: rec.Reason})
			}
		}
	}
	return out
}

// jobLifeEvents returns a job's status-family events — status, preempted
// and resumed — in sequence order.
func jobLifeEvents(m *Manager, id string) []lifeLine {
	var out []lifeLine
	for _, ev := range m.hub.Since(id, 0) {
		switch ev.Type {
		case events.TypeStatus, events.TypePreempted, events.TypeResumed:
			out = append(out, lifeLine{Type: string(ev.Type), Status: ev.Status, Reason: ev.Reason, Terminal: ev.Terminal})
		}
	}
	return out
}

// bootJournaled is NewManagerFromJournal that fails the test on error.
func bootJournaled(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManagerFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// submitAs submits a spec and fails the test unless it got the wanted ID.
func submitAs(t *testing.T, m *Manager, spec JobSpec, wantID string) *Job {
	t.Helper()
	job, err := m.SubmitToken(spec, "")
	if err != nil || job.ID != wantID {
		t.Fatalf("submitted %v, %v; want %s", job, err, wantID)
	}
	return job
}

// sleepEvaluator holds every evaluation for d, then scores it for real.
type sleepEvaluator struct {
	inner hpo.Evaluator
	d     time.Duration
}

func (s sleepEvaluator) FullBudget() int { return s.inner.FullBudget() }

func (s sleepEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	time.Sleep(s.d)
	return s.inner.Evaluate(cfg, budget, r)
}

// The lifecycle lines of TestJobLifecycleRecords' expectations.
var (
	jSubmit    = lifeLine{Type: journal.TypeSubmit}
	jRunning   = lifeLine{Type: journal.TypeStatus, Status: string(StatusRunning)}
	jPreempt   = lifeLine{Type: journal.TypePreempt}
	eRunning   = lifeLine{Type: string(events.TypeStatus), Status: string(StatusRunning)}
	ePreempted = lifeLine{Type: string(events.TypePreempted), Status: string(StatusQueued)}
	eResumed   = lifeLine{Type: string(events.TypeResumed), Status: string(StatusRunning)}
)

func jResult(s Status, r Reason) lifeLine {
	return lifeLine{Type: journal.TypeResult, Status: string(s), Reason: string(r)}
}

func eEnd(s Status, r Reason) lifeLine {
	return lifeLine{Type: string(events.TypeStatus), Status: string(s), Reason: string(r), Terminal: true}
}

// TestJobLifecycleRecords pins, for every path a job's life can take, the
// journal records it leaves (type, status, reason) and the status-family
// events it publishes (type, status, reason, terminal), each in order. run
// drives one job of a journaled manager to the end of its path and
// returns the manager that holds it last; that manager is shut down before
// the logs are read, so every record is on disk.
func TestJobLifecycleRecords(t *testing.T) {
	for _, tc := range []struct {
		name    string
		run     func(t *testing.T, cfg Config) (*Manager, string)
		journal []lifeLine
		events  []lifeLine
	}{
		{
			name: "done",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				m := bootJournaled(t, cfg)
				submitAs(t, m, smallSpec(), "job-1")
				waitJob(t, m, "job-1", terminal, "terminal")
				return m, "job-1"
			},
			journal: []lifeLine{jSubmit, jRunning, jResult(StatusDone, "")},
			events:  []lifeLine{eRunning, eEnd(StatusDone, "")},
		},
		{
			name: "failed-budget-exhausted",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				cfg.EvalAttempts, cfg.FailureBudget = 1, 1
				cfg.WrapEvaluator = func(_ string, inner hpo.Evaluator) hpo.Evaluator {
					return funcEvaluator{inner, func(search.Config, int, *rng.RNG) ([]float64, error) {
						return nil, errors.New("injected: definitive failure")
					}}
				}
				m := bootJournaled(t, cfg)
				submitAs(t, m, smallSpec(), "job-1")
				waitJob(t, m, "job-1", terminal, "terminal")
				return m, "job-1"
			},
			journal: []lifeLine{jSubmit, jRunning, jResult(StatusFailed, "")},
			events:  []lifeLine{eRunning, eEnd(StatusFailed, "")},
		},
		{
			name: "cancelled-while-queued",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				gate, entered := make(chan struct{}), make(chan struct{})
				cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
					if id == "job-1" {
						return &gateEvaluator{inner: inner, gate: gate, entered: entered}
					}
					return inner
				}
				m := bootJournaled(t, cfg)
				submitAs(t, m, smallSpec(), "job-1")
				<-entered
				job := submitAs(t, m, smallSpec(), "job-2")
				job.Cancel()
				waitJob(t, m, "job-2", terminal, "terminal")
				close(gate)
				return m, "job-2"
			},
			journal: []lifeLine{jSubmit, jResult(StatusCancelled, ReasonUserCancel)},
			events:  []lifeLine{eEnd(StatusCancelled, ReasonUserCancel)},
		},
		{
			name: "cancelled-while-running",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				gate, entered := make(chan struct{}), make(chan struct{})
				cfg.WrapEvaluator = func(_ string, inner hpo.Evaluator) hpo.Evaluator {
					return &gateEvaluator{inner: inner, gate: gate, entered: entered}
				}
				m := bootJournaled(t, cfg)
				job := submitAs(t, m, smallSpec(), "job-1")
				<-entered
				job.Cancel()
				close(gate)
				waitJob(t, m, "job-1", terminal, "terminal")
				return m, "job-1"
			},
			journal: []lifeLine{jSubmit, jRunning, jResult(StatusCancelled, ReasonUserCancel)},
			events:  []lifeLine{eRunning, eEnd(StatusCancelled, ReasonUserCancel)},
		},
		{
			name: "timeout",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				cfg.WrapEvaluator = func(_ string, inner hpo.Evaluator) hpo.Evaluator {
					return sleepEvaluator{inner: inner, d: 200 * time.Millisecond}
				}
				m := bootJournaled(t, cfg)
				spec := smallSpec()
				spec.TimeoutSec = 0.05
				submitAs(t, m, spec, "job-1")
				waitJob(t, m, "job-1", terminal, "terminal")
				return m, "job-1"
			},
			journal: []lifeLine{jSubmit, jRunning, jResult(StatusCancelled, ReasonTimeout)},
			events:  []lifeLine{eRunning, eEnd(StatusCancelled, ReasonTimeout)},
		},
		{
			name: "shutdown",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				gate, entered := make(chan struct{}), make(chan struct{})
				cfg.WrapEvaluator = func(_ string, inner hpo.Evaluator) hpo.Evaluator {
					return &gateEvaluator{inner: inner, gate: gate, entered: entered}
				}
				m := bootJournaled(t, cfg)
				job := submitAs(t, m, smallSpec(), "job-1")
				<-entered
				stopped := make(chan struct{})
				go func() {
					defer close(stopped)
					shutdown(t, m)
				}()
				for job.Snapshot().Reason != ReasonShutdown {
					time.Sleep(time.Millisecond)
				}
				close(gate)
				<-stopped
				return m, "job-1"
			},
			journal: []lifeLine{jSubmit, jRunning, jResult(StatusCancelled, ReasonShutdown)},
			events:  []lifeLine{eRunning, eEnd(StatusCancelled, ReasonShutdown)},
		},
		{
			name: "preempted-resumed-done",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				gate, victimIn := make(chan struct{}), make(chan struct{}, 1)
				cfg.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
					if id == "job-1" {
						return &gateOnceEvaluator{inner: inner, gate: gate, entered: victimIn}
					}
					return inner
				}
				m := bootJournaled(t, cfg)
				victim := submitAs(t, m, wideSpec("victim"), "job-1")
				<-victimIn
				submitAs(t, m, tinySpec("vip", 70), "job-2")
				close(gate)
				for _, id := range []string{"job-1", "job-2"} {
					waitJob(t, m, id, terminal, "terminal")
				}
				if n := victim.Snapshot().Preemptions; n != 1 {
					t.Fatalf("the victim was preempted %d times; the path needs exactly one", n)
				}
				return m, "job-1"
			},
			journal: []lifeLine{jSubmit, jRunning, jPreempt, jRunning, jResult(StatusDone, "")},
			events:  []lifeLine{eRunning, ePreempted, eResumed, eEnd(StatusDone, "")},
		},
		{
			name: "interrupted-at-restart",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				release, frozen := make(chan struct{}), make(chan struct{})
				live := cfg
				live.WrapEvaluator = func(_ string, inner hpo.Evaluator) hpo.Evaluator {
					return &stubEvaluator{inner: inner, free: 3, hold: release, entered: frozen}
				}
				m1 := bootJournaled(t, live)
				t.Cleanup(func() {
					close(release)
					shutdown(t, m1)
				})
				submitAs(t, m1, smallSpec(), "job-1")
				<-frozen
				// Kill: no Shutdown, nothing closed.
				return bootJournaled(t, cfg), "job-1"
			},
			journal: []lifeLine{jSubmit, jRunning, jResult(StatusCancelled, ReasonInterrupted)},
			events:  []lifeLine{eRunning, eEnd(StatusCancelled, ReasonInterrupted)},
		},
		{
			name: "resumable-at-restart",
			run: func(t *testing.T, cfg Config) (*Manager, string) {
				gate, victimIn := make(chan struct{}), make(chan struct{}, 1)
				release, frozen := make(chan struct{}), make(chan struct{})
				live := cfg
				live.WrapEvaluator = func(id string, inner hpo.Evaluator) hpo.Evaluator {
					if id == "job-1" {
						return &gateOnceEvaluator{inner: inner, gate: gate, entered: victimIn}
					}
					return &stubEvaluator{inner: inner, hold: release, entered: frozen}
				}
				m1 := bootJournaled(t, live)
				t.Cleanup(func() {
					close(release)
					shutdown(t, m1)
				})
				victim := submitAs(t, m1, wideSpec("victim"), "job-1")
				<-victimIn
				submitAs(t, m1, tinySpec("vip", 70), "job-2")
				close(gate)
				<-frozen // MaxJobs is 1: the vip runs, so the victim yielded
				if snap := victim.Snapshot(); snap.Status != StatusQueued || snap.Preemptions != 1 {
					t.Fatalf("the victim is %s after %d preemptions; the path needs it preempted once and waiting", snap.Status, snap.Preemptions)
				}
				// Kill: no Shutdown, nothing closed.
				m2 := bootJournaled(t, cfg)
				waitJob(t, m2, "job-1", terminal, "terminal")
				return m2, "job-1"
			},
			journal: []lifeLine{jSubmit, jRunning, jPreempt, jRunning, jResult(StatusDone, "")},
			events:  []lifeLine{eRunning, ePreempted, eResumed, eEnd(StatusDone, "")},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				PoolSize: 1, MaxJobs: 1, MaxPending: 64, DataDir: t.TempDir(),
				RetryBackoff: time.Millisecond, TenantWeights: map[string]int{"victim": 1, "vip": 8},
			}
			m, id := tc.run(t, cfg)
			shutdown(t, m)
			if got := jobJournal(t, cfg.DataDir, id); !slices.Equal(got, tc.journal) {
				t.Errorf("%s's journal records:\n got %+v\nwant %+v", id, got, tc.journal)
			}
			if got := jobLifeEvents(m, id); !slices.Equal(got, tc.events) {
				t.Errorf("%s's status events:\n got %+v\nwant %+v", id, got, tc.events)
			}
		})
	}
}

// TestDeadlineJournalsNothing: an evaluation abandoned at its deadline is
// told by the trace log's deadline event, which carries its budget; the
// journal holds no record of it.
func TestDeadlineJournalsNothing(t *testing.T) {
	cfg := Config{
		PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir(),
		EvalTimeout: 150 * time.Millisecond, EvalAttempts: 2, RetryBackoff: time.Millisecond, FailureBudget: 5,
		WrapEvaluator: func(_ string, inner hpo.Evaluator) hpo.Evaluator {
			return &wedgeEvaluator{inner: inner, sleep: 30 * time.Second}
		},
	}
	m := bootJournaled(t, cfg)
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	submitAs(t, m, smallSpec(), "job-1")
	waitJob(t, m, "job-1", func(s Status) bool { return s == StatusDone }, "done")
	var evs []events.Event
	getJSON(t, ts.URL+"/jobs/job-1/trace?events=1", &evs)
	deadlines := 0
	for _, ev := range evs {
		if ev.Type == events.TypeDeadline && ev.Budget > 0 && ev.Reason == string(ReasonDeadline) {
			deadlines++
		}
	}
	if deadlines != 1 {
		t.Errorf("/trace?events=1 holds %d deadline events, want 1", deadlines)
	}
	shutdown(t, m)
	files, err := filepath.Glob(filepath.Join(cfg.DataDir, "*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no journal files in %s (%v)", cfg.DataDir, err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(raw, []byte(`"t":"event"`)) {
			t.Errorf("%s holds an event record:\n%s", filepath.Base(path), raw)
		}
	}
}
