package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
	"enhancedbhpo/internal/serve/tracestore"
)

// lifeLine is one lifecycle step as a log holds it: a journal record's
// type, status and reason, or a status-family event's type, status,
// reason and terminal flag.
type lifeLine struct {
	Type, Status, Reason string
	Terminal             bool
}

// logRecords returns every record line of a data directory's log, in log
// order, decoded.
func logRecords(t *testing.T, dir string) []journal.Record {
	t.Helper()
	var out []journal.Record
	_, err := tracestore.ReadAll(TraceDir(dir), func(line []byte) {
		var rec journal.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// jobJournal returns a job's records in replay order, segment by segment.
func jobJournal(t *testing.T, dir, id string) []lifeLine {
	t.Helper()
	var out []lifeLine
	for _, rec := range logRecords(t, dir) {
		if rec.JobID == id {
			out = append(out, lifeLine{Type: rec.Type, Status: rec.Status, Reason: rec.Reason})
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
func bootJournaled(t testing.TB, cfg Config) *Manager {
	t.Helper()
	m, err := NewManagerFromJournal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// submitAs submits a spec and fails the test unless it got the wanted ID.
func submitAs(t testing.TB, m *Manager, spec JobSpec, wantID string) *Job {
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

// lifecyclePath is one path a job's life can take: run drives one job of
// a journaled manager of lifecycleConfig to the end of the path and
// returns the manager that holds it last, and the job's ID; journal and
// events are the records it leaves and the status-family events it
// publishes, each in order.
type lifecyclePath struct {
	name    string
	run     func(t testing.TB, cfg Config) (*Manager, string)
	journal []lifeLine
	events  []lifeLine
}

// lifecycleConfig is the manager every lifecycle path runs on.
func lifecycleConfig(t testing.TB) Config {
	return Config{
		PoolSize: 1, MaxJobs: 1, MaxPending: 64, DataDir: t.TempDir(),
		TenantWeights: map[string]int{"victim": 1, "vip": 8},
	}
}

// lifecyclePaths are the paths of TestJobLifecycleRecords.
func lifecyclePaths() []lifecyclePath {
	return []lifecyclePath{
		{
			name: "done",
			run: func(t testing.TB, cfg Config) (*Manager, string) {
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
			run: func(t testing.TB, cfg Config) (*Manager, string) {
				cfg.FailureBudget = 1
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
			run: func(t testing.TB, cfg Config) (*Manager, string) {
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
			run: func(t testing.TB, cfg Config) (*Manager, string) {
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
			run: func(t testing.TB, cfg Config) (*Manager, string) {
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
			run: func(t testing.TB, cfg Config) (*Manager, string) {
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
			run: func(t testing.TB, cfg Config) (*Manager, string) {
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
			run: func(t testing.TB, cfg Config) (*Manager, string) {
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
			run: func(t testing.TB, cfg Config) (*Manager, string) {
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
	}
}

// TestJobLifecycleRecords pins, for every path a job's life can take, the
// records it leaves (type, status, reason) and the status-family events it
// publishes (type, status, reason, terminal), each in order. The manager
// that holds the job last is shut down before the log is read, so every
// record is on disk.
func TestJobLifecycleRecords(t *testing.T) {
	for _, tc := range lifecyclePaths() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := lifecycleConfig(t)
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
// told by the log's deadline event, which carries its budget; no record
// tells it.
func TestDeadlineJournalsNothing(t *testing.T) {
	cfg := Config{
		PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir(),
		EvalTimeout: 150 * time.Millisecond, FailureBudget: 5,
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
	files := traceSegments(t, cfg.DataDir)
	if len(files) == 0 {
		t.Fatalf("no log segments in %s", cfg.DataDir)
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

// checkReplayReadsServed fails unless journal.Replay of the data
// directory — what the benchmark's crash-recover check reads of a
// snapshot — returns every job of m, which has been shut down, as m
// serves it: its ID, status, checkpoint, evaluations, budget (its curve's
// final cumulative budget), token and tenant.
func checkReplayReadsServed(t *testing.T, m *Manager, dataDir string) {
	t.Helper()
	states, err := journal.Replay(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := m.Jobs()
	if len(states) != len(jobs) {
		t.Fatalf("Replay holds %d jobs, the manager %d", len(states), len(jobs))
	}
	for i, job := range jobs {
		snap := job.Snapshot()
		budget := 0
		if n := len(snap.Curve); n > 0 {
			budget = snap.Curve[n-1].CumBudget
		}
		job.mu.Lock()
		token := job.token
		job.mu.Unlock()
		st := states[i]
		got := fmt.Sprintf("%s %s checkpoint=%t evaluations=%d budget=%d token=%q tenant=%q",
			st.ID, st.Status, len(st.Checkpoint) > 0, st.Evaluations, st.Budget, st.Token, st.Tenant)
		want := fmt.Sprintf("%s %s checkpoint=%t evaluations=%d budget=%d token=%q tenant=%q",
			snap.ID, snap.Status, snap.Status == StatusQueued && snap.Preemptions > 0, snap.Evaluations, budget, token, snap.Tenant)
		if got != want {
			t.Errorf("Replay reads\n %s\nthe manager serves\n %s", got, want)
		}
	}
}

// TestReplayReadsWhatWasServed: for every lifecycle path, journal.Replay
// of the data directory reads every job as the manager that holds it
// last serves it.
func TestReplayReadsWhatWasServed(t *testing.T) {
	for _, tc := range lifecyclePaths() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := lifecycleConfig(t)
			m, _ := tc.run(t, cfg)
			shutdown(t, m)
			checkReplayReadsServed(t, m, cfg.DataDir)
		})
	}
}
