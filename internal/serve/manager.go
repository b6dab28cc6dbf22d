package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/evalcache"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/sched"
	"enhancedbhpo/internal/serve/shipper"
	"enhancedbhpo/internal/serve/tracestore"
)

// ErrOverloaded is returned by SubmitToken when the scheduler's global
// queued-job cap (MaxPending) is reached: the service sheds the
// submission instead of accepting unbounded work. The HTTP layer maps it
// to 429 with a Retry-After computed from the observed evaluation
// latency. A per-tenant quota rejection surfaces as *sched.QuotaError
// instead, priced for that tenant specifically.
var ErrOverloaded = errors.New("serve: pending queue full")

const (
	// maxPreempts bounds how many times a single job yields its slot at
	// rung boundaries before it becomes immune to further preemption —
	// bounded churn, guaranteed progress.
	maxPreempts = 8
	// cacheEntries caps each evaluation-cache scope (LRU).
	cacheEntries = 1 << 16
)

// Config tunes the Manager.
type Config struct {
	// PoolSize is the shared evaluation-slot count across all jobs: how
	// many cores evaluations — and the folds they lend to idle slots —
	// may train on at once. 0 selects runtime.NumCPU().
	PoolSize int
	// MaxJobs bounds concurrently running jobs; submissions beyond it
	// wait in the queued state. 0 selects 4.
	MaxJobs int
	// MaxPending bounds the queued (accepted but not yet running) jobs
	// across all tenants; submissions beyond it are shed with
	// ErrOverloaded. Jobs recovered from the journal are never shed.
	// 0 selects 64.
	MaxPending int
	// TenantWeights maps tenant names to their weighted-fair-share
	// weights (≥ 1): at saturation, a weight-3 tenant receives three
	// times the evaluation budget of a weight-1 tenant. Tenants absent
	// from the map get weight 1.
	TenantWeights map[string]int
	// TenantQuota caps one tenant's queued (not yet running) jobs;
	// submissions beyond it are shed with a *sched.QuotaError 429 priced
	// for that tenant, independent of the global MaxPending cap.
	// 0 disables per-tenant quotas.
	TenantQuota int
	// EvalTimeout abandons an evaluation that has run longer than this:
	// its pool slot is released, the wedged goroutine's eventual result
	// is discarded, and the trial is charged to the job's failure budget
	// (worst-case score). 0 disables the watchdog.
	EvalTimeout time.Duration
	// DataDir, when non-empty, enables journaled persistence: job records
	// (specs, transitions, results) and events are appended to one
	// segmented JSONL log in DataDir, the trace log, so
	// NewManagerFromJournal can rebuild the job table after a restart.
	DataDir string
	// ScopeTTL releases an evalScope's dataset/fold memory once no live
	// job has referenced it for this long; the scope is rebuilt
	// deterministically on next use (same spec → same data, folds and
	// cache scope key, so only the memoized scores are lost). 0 disables
	// eviction.
	ScopeTTL time.Duration
	// FailureBudget is how many failed evaluations (errors, panics and
	// deadlines alike, each attempted once) a job absorbs — each failed
	// trial scores worst-case instead of aborting — before the job flips
	// to StatusFailed. 0 selects 3.
	FailureBudget int
	// TraceMaxBytes is the segment size of the durable log all jobs share:
	// the active segment is sealed, immutable from then on, and the next
	// one started once it has grown past this. Only meaningful with
	// DataDir set. 0 selects 1 MiB; negative never rotates.
	TraceMaxBytes int64
	// WrapEvaluator, when non-nil, wraps each job's evaluator between
	// the pool gate and the cache. It is the fault-injection point used
	// by the crash/restart and chaos tests and is applied per job as the
	// job starts optimizing. The pool calls the wrapped evaluator once per
	// trial: a fault it injects fails that trial, charged to the job's
	// failure budget.
	WrapEvaluator func(jobID string, inner hpo.Evaluator) hpo.Evaluator
	// NodeName identifies this daemon in a cluster: it is surfaced in
	// /healthz and /metrics so a coordinator's probes and a replacement
	// node's operators can tell nodes apart. Empty outside a cluster.
	NodeName string
	// Shipper, when non-nil, replicates the log to its sinks as it grows
	// and seals, so a replacement node can rebuild this node's job table
	// after the machine dies (shipper.Restore + NewManagerFromJournal).
	// Requires DataDir.
	// Ownership (Close) stays with the caller, which should close it after
	// Shutdown so the final state flushes.
	Shipper *shipper.Shipper
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = runtime.NumCPU()
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 64
	}
	if c.TraceMaxBytes == 0 {
		c.TraceMaxBytes = 1 << 20
	}
	if c.FailureBudget <= 0 {
		c.FailureBudget = 3
	}
	return c
}

// evalScope is the shared, deterministic substrate of every job that
// agrees on a JobSpec cache scope: the synthesized data, the fold
// components and the memoizing evaluators. Scopes are built once and
// reused, so resubmissions hit warm caches; an idle scope (no live job
// referencing it for ScopeTTL) is evicted to reclaim its dataset and
// fold memory and rebuilt deterministically on next use.
type evalScope struct {
	comps hpo.Components
	cache *evalcache.Cache
	// refits memoizes a job's last step — the winner refitted on the
	// whole training split and scored on the test split — the same way
	// cache memoizes fold scores, so a resubmission whose evaluations
	// all hit trains nothing at all.
	refits *evalcache.Cache
}

// refitter is the final step of a job as an hpo.Evaluator, which is what
// evalcache memoizes: it refits one configuration on the whole training
// split with a seed drawn from the stream it is handed and returns the
// model's score on the held-out test split as the only "fold".
type refitter struct {
	cv   *hpo.CVEvaluator
	test *dataset.Dataset
}

func (f refitter) FullBudget() int { return f.cv.FullBudget() }

func (f refitter) Evaluate(cfg search.Config, _ int, r *rng.RNG) ([]float64, error) {
	score, err := f.cv.ScoreFull(cfg, r.Uint64(), f.test)
	if err != nil {
		return nil, err
	}
	return []float64{score}, nil
}

// scopeEntry tracks one live scope in the manager's table: how many jobs
// currently hold it (janitor never evicts refs > 0) and when it was last
// released.
type scopeEntry struct {
	scope    *evalScope
	refs     int
	lastUsed time.Time
}

// Manager owns the job table, the weighted-fair scheduler and the cache
// scopes.
type Manager struct {
	cfg     Config
	started time.Time
	// sched hands out all capacity: admission (global cap + per-tenant
	// quota), job slots in weighted-fair order with rung-boundary
	// preemption marking, and the PoolSize evaluation slots running jobs
	// share.
	sched *sched.Scheduler

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// hub keeps each job's telemetry (curve points, rung promotions,
	// deadline abandonments, failure-budget charges, lifecycle
	// transitions) for SSE subscribers to read; traces, when persistence
	// is on, is the one durable log: the same stream behind the hub's
	// sink, and the job records transition appends.
	hub    *events.Hub
	traces *tracestore.Store // nil when persistence is disabled

	evals            atomic.Int64
	foldsLent        atomic.Int64
	trialFailures    atomic.Int64
	traceErrs        atomic.Int64
	journalErrs      atomic.Int64
	shed             atomic.Int64
	resumes          atomic.Int64
	deadlineExceeded atomic.Int64
	scopesEvicted    atomic.Int64
	evalEWMA         atomic.Uint64 // math.Float64bits of the latency EWMA in seconds

	// boot is what NewManagerFromJournal cost, set once before it returns:
	// the whole call, the records' replay, the events' filing pass beside
	// it; jobs came back, live of them were launched again.
	boot struct {
		total, journal, trace time.Duration
		jobs, live            int
	}

	mu     sync.Mutex
	seq    int
	jobs   map[string]*Job
	order  []string
	tokens map[string]string // submit token → job ID (idempotent retries)
	scopes map[string]*scopeEntry
}

// NewManager returns a ready, non-persistent manager; callers should
// Shutdown it to stop running jobs. For a journaled manager that
// recovers its job table across restarts, use NewManagerFromJournal.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		started: time.Now(),
		sched: sched.New(sched.Config{
			Slots:     cfg.MaxJobs,
			EvalSlots: cfg.PoolSize,
			MaxQueued: cfg.MaxPending,
			Quota:     cfg.TenantQuota,
			Weights:   cfg.TenantWeights,
		}),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       map[string]*Job{},
		tokens:     map[string]string{},
		scopes:     map[string]*scopeEntry{},
	}
	m.hub = events.NewHub(events.Options{
		Sink: func(e events.Entry) {
			// m.traces is set (at most once) before any job can publish,
			// so this read never races the write in NewManagerFromJournal.
			if m.traces == nil {
				return
			}
			if err := m.traces.AppendEntry(e); err != nil {
				m.traceErrs.Add(1)
			}
		},
	})
	if cfg.ScopeTTL > 0 {
		go m.scopeJanitor()
	}
	return m
}

// NewManagerFromJournal opens (creating if needed) the log in
// cfg.DataDir, replays its records, and returns a manager with the
// previous process's job table rebuilt: terminal jobs are restored with their
// results (their anytime curves are read from the trace log when first
// asked for), jobs that were mid-run when the process died are marked
// cancelled with reason "interrupted", and jobs that were still queued are
// re-enqueued and run again — those preempted before, from the curve
// points their trace log holds.
//
// A boot reads the log once, decodes every record once and no event, and
// rewrites nothing. journal.Fold refuses a directory holding a file this
// bhpod does not write, naming it, then folds the log's record lines and
// decodes every job's spec, while its reader files the log's event lines
// under their jobs; a missing segment fails the boot. Then this life's
// segment of the log is opened and the whole table built: register,
// sched.Restore, and the event feed primed with the sequence number and
// done flag of the job's newest event, its history left as lines until
// somebody reads it (events.Hub.Prime). A job that was mid-run without a
// checkpoint is the one thing the boot decides: it ends cancelled,
// interrupted, finished at the boot's start, and its result record and
// terminal event are among this life's segment's first lines. Only then
// are the queued jobs launched, so nothing runs before the table is whole
// and a boot that fails leaves nothing running and nothing open.
func NewManagerFromJournal(cfg Config) (_ *Manager, err error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: NewManagerFromJournal needs Config.DataDir")
	}
	begin := time.Now()
	specs := map[string]JobSpec{}
	states, log, err := journal.Fold(cfg.DataDir, func(id string, raw json.RawMessage) error {
		if len(raw) == 0 {
			return nil
		}
		var spec JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			return fmt.Errorf("serve: replaying %s: %w", id, err)
		}
		specs[id] = spec
		return nil
	})
	if err != nil {
		return nil, err
	}
	m := NewManager(cfg)
	m.boot.journal, m.boot.trace, m.boot.jobs = time.Since(begin), log.Took, len(states)
	defer func() {
		if err != nil {
			// Nothing is registered yet: this stops the janitor and closes
			// the log if it did open. The boot's error is the one to
			// report.
			_ = m.Shutdown(context.Background())
		}
	}()
	// With a shipper, the segments earlier lives left ship sealed, once per
	// life, as the log opens — under their name in the data directory, as a
	// restore lays them out.
	var onChange func(name string, sealed bool)
	if ship := cfg.Shipper; ship != nil {
		onChange = func(name string, sealed bool) {
			if sealed {
				ship.Sealed("traces/" + name)
			} else {
				ship.Changed("traces/" + name)
			}
		}
	}
	traces, err := tracestore.Open(TraceDir(cfg.DataDir), tracestore.Options{MaxBytes: m.cfg.TraceMaxBytes, OnChange: onChange})
	if err != nil {
		return nil, err
	}
	m.traces = traces
	var live []*Job
	for _, st := range states {
		job := &Job{
			ID:        st.ID,
			Spec:      specs[st.ID],
			token:     st.Token,
			hub:       m.hub,
			cancel:    func() {},
			status:    StatusQueued,
			submitted: st.SubmittedAt,
			started:   st.StartedAt,
			// Preemption counts survive restarts like the rest of the
			// accounting; a resumable job's checkpoint holds its own.
			preempts: st.Preemptions,
		}
		m.register(job)
		// Re-arm the event feed, the one place the job's curve is:
		// sequence numbers continue where the dead process stopped, and
		// subscribers can resume (or fetch the full pre-crash curve) across
		// the restart. A history holding fewer curve points than the
		// evaluations the records count (an event that did not encode, or
		// whose append failed, is missing from the log) is served, or resumed
		// from, as it is and counted once in trace_store_errors: when it is decoded
		// — a finished job's on its first read, a live one's now — or now
		// if it holds no event at all.
		history := log.History[st.ID]
		if last, ok := history.Last(); ok {
			m.hub.Prime(st.ID, last.Seq, last.Terminal, func() []events.Event {
				evs, err := history.Events()
				if err != nil || len(curvePoints(evs)) < st.Evaluations {
					m.traceErrs.Add(1)
				}
				return evs
			})
		} else if st.Evaluations > 0 {
			m.traceErrs.Add(1)
		}
		// Re-seed the tenant's cumulative accounting (service = the curve's
		// final cumulative budget — exactly what was charged — which a
		// result record carries as its budget) so /tenants survives the
		// restart; virtual times restart level.
		service := st.Budget
		switch {
		case st.Terminal():
			job.restoreResult(st)
			m.transition(job, phaseRestored, st.FinishedAt, nil)
		case st.Status == string(StatusRunning) && len(st.Checkpoint) == 0:
			// Mid-run when the process died, with no checkpoint to resume
			// from: the boot's verdict, which the transition journals.
			m.transition(job, phaseRestored, begin, func() {
				job.status, job.reason, job.finished = StatusCancelled, ReasonInterrupted, begin
			})
		default:
			// Queued, or yielded at a rung boundary before it ran again, when
			// the process died: run it again under this manager (the log
			// already holds its submit record, so launching appends only the
			// new transitions) — a checkpointed job from its curve points.
			live = append(live, job)
			if len(st.Checkpoint) > 0 {
				ck := checkpointState{Preempts: job.preempts} // kept if the checkpoint does not decode
				if json.Unmarshal(st.Checkpoint, &ck) != nil {
					m.journalErrs.Add(1)
				}
				job.preempts = ck.Preempts
				job.resume(m.hub.Since(job.ID, 0), st.Evaluations)
				service = job.last.CumBudget
			}
		}
		m.sched.Restore(job.tenant(), float64(service), int64(job.evaluations), int64(st.Preemptions))
	}
	// The table is whole and every tenant's accounting re-seeded: only now
	// may the scheduler grant. Replayed jobs bypass admission control —
	// they were already accepted once.
	for _, job := range live {
		ticket, _ := m.sched.Enqueue(job.tenant(), job.ID, true) // bypass: never errors
		m.launch(job, ticket)
	}
	m.boot.live, m.boot.total = len(live), time.Since(begin)
	return m, nil
}

// TraceDir is where a data directory keeps its log: the segments
// (trace-NNNNNN.jsonl) all jobs' records and events are appended to.
func TraceDir(dataDir string) string { return tracestore.Dir(dataDir) }

// publish stamps the event time (when unset) and routes it through the
// hub — and so to SSE subscribers and, when persistence is on, the
// durable trace store.
func (m *Manager) publish(jobID string, ev events.Event) {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	m.hub.Publish(jobID, ev)
}

// observeTrial is the per-trial observer behind every running job: it
// folds the trial into the job's incumbent state, streams the new curve
// point (plus a rung event when the trial entered a new round), charges
// the trial's budget to the job's tenant, and — when the scheduler has
// marked this job as a preemption victim — cancels the current run
// segment so the slot is yielded at this trial boundary. Optimizer workers
// call it one at a time, in the order a single worker produces trials; the
// job lock is held across record-and-publish so the feed holds a point
// for every evaluation the job counts, the moment it counts it. (Lock
// order job.mu → feed.mu and job.mu → sched.mu are both safe: no hub or
// scheduler path takes a job lock.)
func (m *Manager) observeTrial(job *Job, tr hpo.Trial) {
	job.mu.Lock()
	defer job.mu.Unlock()
	if job.replaySkip > 0 {
		// Replaying the checkpointed prefix after a preemption or restart:
		// these trials were already recorded, published and charged in the
		// segment that produced the checkpoint.
		job.replaySkip--
		return
	}
	pt, promoted := job.recordTrialLocked(tr)
	if promoted {
		m.publish(job.ID, events.Event{Type: events.TypeRung, Round: tr.Round, Budget: tr.Budget})
	}
	m.publish(job.ID, events.Event{Type: events.TypeCurvePoint, Point: &pt})
	m.sched.Charge(job.tenant(), float64(tr.Budget))
	if job.preempts < maxPreempts &&
		job.evaluations > job.checkpointLen && job.segCancel != nil &&
		m.sched.ShouldPreempt(job.ID) {
		// Yield, but only with at least one new trial recorded this
		// segment: a job that resumes straight into a victim mark must
		// make progress before yielding again, or preemption could starve
		// it into a replay loop.
		job.segCancel(errPreempted)
	}
}

// register inserts the job into the table, keeping seq ahead of every
// known numeric ID suffix so replayed and fresh jobs never collide.
func (m *Manager) register(job *Job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	num, ok := strings.CutPrefix(job.ID, "job-")
	if n, err := strconv.Atoi(num); ok && err == nil && n > m.seq {
		m.seq = n
	}
	m.jobs[job.ID] = job
	m.order = append(m.order, job.ID)
	if job.token != "" {
		m.tokens[job.token] = job.ID
	}
}

// launch builds the job's context (with the spec timeout, restarted from
// now for replayed jobs) and starts the runner goroutine with its
// scheduler ticket.
func (m *Manager) launch(job *Job, ticket *sched.Ticket) {
	ctx, cancel := context.WithCancel(m.baseCtx)
	if job.Spec.TimeoutSec > 0 {
		ctx, cancel = context.WithTimeout(m.baseCtx, time.Duration(job.Spec.TimeoutSec*float64(time.Second)))
	}
	job.mu.Lock()
	job.cancel = cancel
	preCancelled := job.reason != ""
	job.mu.Unlock()
	if preCancelled {
		// A cancel raced in before the cancel func existed; honor it now.
		cancel()
	}
	m.wg.Add(1)
	go m.run(ctx, job, cancel, ticket)
}

// SubmitToken validates the spec, applies admission control (the global
// queued cap and the submitting tenant's quota), registers a queued job,
// journals the submission and starts the job in the background. A full
// queue sheds the submission with ErrOverloaded; a tenant at quota with
// a *sched.QuotaError.
//
// The token is an idempotency key: a coordinator retrying a submission
// it is not sure was accepted (the node died between routing and ack, or
// the retry landed on a restored replacement that replayed the original)
// sends the same token, and a token the manager has already accepted
// returns the existing job instead of running the work twice. Tokens
// persist in the journal's submit records, so the guarantee survives
// restart and restore. An empty token is an ordinary submission.
func (m *Manager) SubmitToken(spec JobSpec, token string) (*Job, error) {
	jobs, err := m.submit([]JobSpec{spec}, token, false)
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// BatchError names the batch item that failed validation, so the HTTP
// layer can return a structured 400 pointing at the offending entry.
type BatchError struct {
	// Index is the zero-based position in the submitted batch.
	Index int
	// Err is the underlying spec error (often a *SpecFieldError).
	Err error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("serve: batch item %d: %v", e.Index, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *BatchError) Unwrap() error { return e.Err }

// errTokenMismatch is a batch re-sent under an accepted token with a
// different number of jobs: it cannot be the retry the token vouches
// for. The HTTP layer maps it to 409.
var errTokenMismatch = errors.New("serve: submit token already accepted for a batch of another length")

// SubmitBatch admits every spec or none: validation failures reject the
// batch with a *BatchError before anything is enqueued, and admission —
// the global queued cap plus every named tenant's quota, counting the
// batch itself — is checked atomically under one scheduler lock, so a
// batch is never half-accepted. On success the returned jobs are
// index-aligned with specs. A non-empty token dedupes the whole batch:
// a retried token returns the originally accepted jobs.
func (m *Manager) SubmitBatch(specs []JobSpec, token string) ([]*Job, error) {
	if len(specs) == 0 {
		return nil, &BatchError{Index: 0, Err: errors.New("empty batch")}
	}
	return m.submit(specs, token, true)
}

// submit is the one admission path behind Submit, SubmitToken and
// SubmitBatch: validate every spec, answer a token already accepted with
// the jobs it was accepted for, otherwise assign IDs and enqueue all
// specs or none, register, journal and launch. Item i is journaled under
// the token itself for a single submission and under "token#i" for a
// batch.
func (m *Manager) submit(specs []JobSpec, token string, batch bool) ([]*Job, error) {
	itemToken := func(i int) string {
		if token == "" || !batch {
			return token
		}
		return fmt.Sprintf("%s#%d", token, i)
	}
	jobs := make([]*Job, len(specs))
	items := make([]sched.BatchItem, len(specs))
	now := time.Now()
	for i, spec := range specs {
		spec = spec.withDefaults()
		if err := spec.Validate(); err != nil {
			if batch {
				err = &BatchError{Index: i, Err: err}
			}
			return nil, err
		}
		jobs[i] = &Job{
			Spec:      spec,
			token:     itemToken(i),
			hub:       m.hub,
			cancel:    func() {},
			status:    StatusQueued,
			submitted: now,
		}
		items[i].Tenant = spec.Tenant
	}
	m.mu.Lock()
	if _, ok := m.tokens[itemToken(0)]; token != "" && ok {
		// A submission is registered atomically under m.mu, so its first
		// token implies every item's — and the first absent one its length.
		accepted := 1
		for batch && m.tokens[itemToken(accepted)] != "" {
			accepted++
		}
		if accepted != len(specs) {
			m.mu.Unlock()
			return nil, fmt.Errorf("%w: accepted with %d jobs, resent with %d", errTokenMismatch, accepted, len(specs))
		}
		for i := range jobs {
			jobs[i] = m.jobs[m.tokens[itemToken(i)]]
		}
		m.mu.Unlock()
		return jobs, nil
	}
	// ID assignment and enqueue happen under m.mu so concurrent
	// submissions cannot interleave IDs and scheduler order differently
	// (lock order m.mu → sched.mu).
	for i := range items {
		items[i].ID = fmt.Sprintf("job-%d", m.seq+1+i)
	}
	tickets, err := m.sched.EnqueueBatch(items)
	if err != nil {
		m.mu.Unlock()
		m.shed.Add(int64(len(specs)))
		if errors.Is(err, sched.ErrQueueFull) {
			return nil, fmt.Errorf("%w: %v", ErrOverloaded, err)
		}
		return nil, err
	}
	m.seq += len(specs)
	for i, job := range jobs {
		job.ID = items[i].ID
		m.jobs[job.ID] = job
		m.order = append(m.order, job.ID)
		if job.token != "" {
			m.tokens[job.token] = job.ID
		}
	}
	m.mu.Unlock()
	for i, job := range jobs {
		m.transition(job, phaseSubmitted, job.submitted, nil)
		m.launch(job, tickets[i])
	}
	return jobs, nil
}

// PendingDepth returns the number of accepted jobs not yet running.
func (m *Manager) PendingDepth() int { return m.sched.Queued() }

// Overloaded reports whether the global queued-job cap is reached — the
// readiness signal behind /healthz's "overloaded" state: the daemon is
// alive and serving reads, but POST /jobs is being shed.
func (m *Manager) Overloaded() bool { return m.sched.Overloaded() }

// Tenants returns per-tenant usage: the scheduler's fair-share
// accounting merged with job lifecycle counts from the job table,
// sorted by tenant name. Served by GET /tenants.
func (m *Manager) Tenants() []TenantStatus {
	stats := m.sched.Stats()
	out := make([]TenantStatus, len(stats))
	byName := map[string]int{}
	for i, st := range stats {
		out[i] = TenantStatus{TenantStats: st}
		byName[st.Tenant] = i
	}
	m.mu.Lock()
	for _, j := range m.jobs {
		// Every job's tenant is known to the scheduler: submission enqueues
		// under it and journal replay restores its accounting.
		i, ok := byName[j.tenant()]
		if !ok {
			continue
		}
		switch j.Status() {
		case StatusQueued:
			out[i].JobsQueued++
		case StatusRunning:
			out[i].JobsRunning++
		case StatusDone:
			out[i].JobsDone++
		case StatusFailed:
			out[i].JobsFailed++
		case StatusCancelled:
			out[i].JobsCancelled++
		}
	}
	m.mu.Unlock()
	return out
}

// TenantStatus is one row of GET /tenants: scheduler-side fair-share
// usage plus job lifecycle counts.
type TenantStatus struct {
	sched.TenantStats
	JobsQueued    int `json:"jobs_queued"`
	JobsRunning   int `json:"jobs_running"`
	JobsDone      int `json:"jobs_done"`
	JobsFailed    int `json:"jobs_failed"`
	JobsCancelled int `json:"jobs_cancelled"`
}

// observeEvalLatency folds one successful evaluation's wall time into
// the latency EWMA that prices Retry-After.
func (m *Manager) observeEvalLatency(d time.Duration) {
	const alpha = 0.2
	secs := d.Seconds()
	for {
		old := m.evalEWMA.Load()
		prev := math.Float64frombits(old)
		next := secs
		if old != 0 {
			next = (1-alpha)*prev + alpha*secs
		}
		if m.evalEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// RetryAfter estimates when a shed client should retry, priced for the
// whole service (all queued jobs, full pool). Per-tenant shed responses
// use RetryAfterTenant instead.
func (m *Manager) RetryAfter() time.Duration {
	return m.retryAfter(m.sched.Queued(), 1)
}

// RetryAfterTenant prices a shed response for one tenant: the observed
// per-evaluation latency EWMA scaled by that tenant's own queue and
// divided by the slice of the pool its weighted fair share entitles it
// to — a heavy, over-quota tenant is told to back off longer than a
// light one shed by the same global cap.
func (m *Manager) RetryAfterTenant(tenant string) time.Duration {
	if tenant == "" {
		tenant = DefaultTenant
	}
	return m.retryAfter(m.sched.TenantQueued(tenant), m.sched.Share(tenant))
}

// retryAfter is the shared Retry-After formula, clamped to [1s, 10m] so
// the header is always positive and never absurd.
func (m *Manager) retryAfter(queued int, share float64) time.Duration {
	ew := math.Float64frombits(m.evalEWMA.Load())
	if ew <= 0 {
		ew = 1 // no evaluation observed yet: a conservative guess
	}
	if share <= 0 || share > 1 {
		share = 1
	}
	secs := ew * float64(queued+1) / (float64(m.cfg.PoolSize) * share)
	switch {
	case secs < 1:
		secs = 1
	case secs > 600:
		secs = 600
	}
	return time.Duration(secs * float64(time.Second))
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Jobs returns every job in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Drain waits for every job runner to finish naturally — nothing is
// cancelled — or for ctx to expire. It is the first phase of a graceful
// SIGTERM stop: admission is closed at the HTTP layer, in-flight work
// runs to completion, and whatever outlives ctx is then cancelled by
// Shutdown with reason "shutdown".
func (m *Manager) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Shutdown cancels every remaining job (recording reason "shutdown"),
// waits for runners to exit or ctx to expire, and closes the log so
// every terminal record is on disk. The scope janitor stops with the
// base context.
func (m *Manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		// Record the reason before the shared cancel fires so finish()
		// can distinguish shutdown from a user cancel.
		j.stop(ReasonShutdown)
	}
	m.baseCancel()
	err := m.Drain(ctx)
	if m.traces != nil {
		if cerr := m.traces.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// acquireScope returns (building on first use) the evaluation scope
// shared by all jobs with the spec's cache scope, pinned against TTL
// eviction until the returned release func is called. Construction is
// deterministic in the spec: data synthesis and grouping draw only on
// DatasetSeed, so an evicted scope rebuilds to the same folds and the
// same cache scope key.
func (m *Manager) acquireScope(spec JobSpec) (*evalScope, func(), error) {
	key := spec.CacheScope()
	m.mu.Lock()
	if e, ok := m.scopes[key]; ok {
		e.refs++
		m.mu.Unlock()
		return e.scope, m.scopeReleaser(key), nil
	}
	m.mu.Unlock()

	// Build outside the lock: synthesis and grouping can take a while and
	// must not stall the HTTP handlers. A racing duplicate build is
	// harmless — identical inputs give an identical scope and the loser
	// is dropped.
	sc, err := m.buildScope(spec)
	if err != nil {
		return nil, nil, err
	}
	m.mu.Lock()
	e, ok := m.scopes[key]
	if !ok {
		e = &scopeEntry{scope: sc}
		m.scopes[key] = e
	}
	e.refs++
	m.mu.Unlock()
	return e.scope, m.scopeReleaser(key), nil
}

// scopeReleaser returns the once-only unpin for one acquisition.
func (m *Manager) scopeReleaser(key string) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			m.mu.Lock()
			if e, ok := m.scopes[key]; ok {
				e.refs--
				e.lastUsed = time.Now()
			}
			m.mu.Unlock()
		})
	}
}

// buildScope synthesizes the scope's data, folds and cache.
func (m *Manager) buildScope(spec JobSpec) (*evalScope, error) {
	train, test, err := core.Data(spec.Dataset, spec.Scale, spec.DatasetSeed)
	if err != nil {
		return nil, err
	}
	variant := core.Vanilla
	if spec.Enhanced {
		variant = core.Enhanced
	}
	comps, err := core.Components(train, variant, spec.DatasetSeed)
	if err != nil {
		return nil, err
	}
	cv := hpo.NewCVEvaluator(train, core.BaseConfig(spec.Iters), comps)
	cv.UseF1 = spec.UseF1
	// An evaluation's folds spill onto whatever evaluation slots are idle:
	// a slot nobody waits for trains the next fold, counted like any other
	// held slot, and is back — with the first waiter, if one has come —
	// when that fold is over.
	giveBack := func() {
		m.foldsLent.Add(1)
		m.sched.ReturnEval()
	}
	cv.Spare = func() func() {
		if !m.sched.TryAcquireEval() {
			return nil
		}
		return giveBack
	}
	return &evalScope{
		comps:  comps,
		cache:  evalcache.New(cv, cacheEntries),
		refits: evalcache.New(refitter{cv: cv, test: test}, cacheEntries),
	}, nil
}

// scopeJanitor periodically sweeps idle scopes. It stops when the
// manager's base context is cancelled (Shutdown).
func (m *Manager) scopeJanitor() {
	tick := m.cfg.ScopeTTL / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > time.Minute {
		tick = time.Minute
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-m.baseCtx.Done():
			return
		case now := <-t.C:
			m.sweepScopes(now)
		}
	}
}

// sweepScopes evicts every scope with no live reference that has been
// idle past ScopeTTL, releasing its dataset and fold memory. A scope
// that was never released (refs > 0, or freshly built) is never taken.
// Returns how many scopes were evicted.
func (m *Manager) sweepScopes(now time.Time) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for key, e := range m.scopes {
		if e.refs == 0 && !e.lastUsed.IsZero() && now.Sub(e.lastUsed) > m.cfg.ScopeTTL {
			delete(m.scopes, key)
			m.scopesEvicted.Add(1)
			n++
		}
	}
	return n
}

// Metrics is the GET /metrics payload.
type Metrics struct {
	UptimeSec     float64 `json:"uptime_sec"`
	JobsQueued    int     `json:"jobs_queued"`
	JobsRunning   int     `json:"jobs_running"`
	JobsDone      int     `json:"jobs_done"`
	JobsFailed    int     `json:"jobs_failed"`
	JobsCancelled int     `json:"jobs_cancelled"`
	PendingDepth  int     `json:"pending_depth"`
	MaxPending    int     `json:"max_pending"`
	ShedRequests  int64   `json:"shed_requests"`
	QuotaShed     int64   `json:"quota_shed"`
	Tenants       int     `json:"tenants"`
	Preemptions   int64   `json:"preemptions"`
	Resumes       int64   `json:"resumes"`
	PoolSize      int     `json:"pool_size"`
	// PoolInUse is the scheduler's count of held evaluation slots — by an
	// evaluation or lent to one of its folds.
	PoolInUse   int   `json:"pool_in_use"`
	Evaluations int64 `json:"evaluations"`
	// FoldsLent counts folds trained on a borrowed slot; the other
	// cache_misses × K − folds_lent ran on their evaluation's own. Zero
	// under load means the job mix leaves no slot idle; zero on a quiet
	// node means -workers is what bounds a job.
	FoldsLent         int64   `json:"folds_lent"`
	EvaluationsPerSec float64 `json:"evaluations_per_sec"`
	EvalsFused        int64   `json:"evals_fused"`    // always 0: the fuser is gone; bench/ (frozen) still reads it
	FuseFallbacks     int64   `json:"fuse_fallbacks"` // always 0, as above; both go with bench's serve.* fuse metrics
	Kernel            string  `json:"kernel"`
	TrialFailures     int64   `json:"trial_failures"`
	DeadlineExceeded  int64   `json:"deadline_exceeded"`
	EventSubscribers  int64   `json:"event_subscribers"`
	EventsPublished   int64   `json:"events_published"`
	EventsDropped     int64   `json:"events_dropped_slow_consumer"` // always 0: a subscriber drops nothing; bench/ (frozen) still reads it
	TraceStoreBytes   int64   `json:"trace_store_bytes"`
	TraceStoreErrors  int64   `json:"trace_store_errors"`
	JournalErrors     int64   `json:"journal_errors"`
	CacheScopes       int     `json:"cache_scopes"`
	ScopesEvicted     int64   `json:"scopes_evicted"`
	CacheEntries      int     `json:"cache_entries"`
	CacheHits         int64   `json:"cache_hits"`
	CacheMisses       int64   `json:"cache_misses"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	Node              string  `json:"node,omitempty"`
	SegmentsShipped   int64   `json:"segments_shipped"`
	ShipRetries       int64   `json:"ship_retries"`
	ShipBytes         int64   `json:"ship_bytes"`
	// What the boot from the log cost (all 0 without one): the whole
	// NewManagerFromJournal call, its fold of the records, and the read
	// of the log that files the events and hands the fold its record
	// lines, which runs beside that; and the jobs it restored.
	BootMS        float64 `json:"boot_ms"`
	BootJournalMS float64 `json:"boot_journal_ms"`
	BootTraceMS   float64 `json:"boot_trace_ms"`
	JobsRestored  int     `json:"jobs_restored"`
}

// ms is a duration in (fractional) milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// Metrics snapshots the service counters.
func (m *Manager) Metrics() Metrics {
	uptime := time.Since(m.started).Seconds()
	out := Metrics{
		UptimeSec:        uptime,
		Node:             m.cfg.NodeName,
		MaxPending:       m.cfg.MaxPending,
		ShedRequests:     m.shed.Load(),
		QuotaShed:        m.sched.QuotaShed(),
		Preemptions:      m.sched.Preemptions(),
		Resumes:          m.resumes.Load(),
		PoolSize:         m.cfg.PoolSize,
		Evaluations:      m.evals.Load(),
		FoldsLent:        m.foldsLent.Load(),
		Kernel:           mat.Kernel(),
		TrialFailures:    m.trialFailures.Load(),
		DeadlineExceeded: m.deadlineExceeded.Load(),
		JournalErrors:    m.journalErrs.Load(),
		TraceStoreErrors: m.traceErrs.Load(),
		ScopesEvicted:    m.scopesEvicted.Load(),
		BootMS:           ms(m.boot.total),
		BootJournalMS:    ms(m.boot.journal),
		BootTraceMS:      ms(m.boot.trace),
		JobsRestored:     m.boot.jobs,
	}
	es := m.hub.Stats()
	out.EventSubscribers = es.Subscribers
	out.EventsPublished = es.Published
	if m.traces != nil {
		out.TraceStoreBytes = m.traces.Bytes()
	}
	if uptime > 0 {
		out.EvaluationsPerSec = float64(out.Evaluations) / uptime
	}
	if m.cfg.Shipper != nil {
		ss := m.cfg.Shipper.Stats()
		out.SegmentsShipped = ss.SegmentsShipped
		out.ShipRetries = ss.Retries
		out.ShipBytes = ss.Bytes
	}
	out.PendingDepth = m.sched.Queued()
	out.PoolInUse = m.sched.Inflight()
	tenants := m.Tenants()
	out.Tenants = len(tenants)
	for _, row := range tenants {
		out.JobsQueued += row.JobsQueued
		out.JobsRunning += row.JobsRunning
		out.JobsDone += row.JobsDone
		out.JobsFailed += row.JobsFailed
		out.JobsCancelled += row.JobsCancelled
	}
	m.mu.Lock()
	out.CacheScopes = len(m.scopes)
	var agg evalcache.Stats
	for _, e := range m.scopes {
		s := e.scope.cache.Stats()
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Entries += s.Entries
	}
	m.mu.Unlock()
	out.CacheEntries = agg.Entries
	out.CacheHits = agg.Hits
	out.CacheMisses = agg.Misses
	out.CacheHitRate = agg.HitRate()
	return out
}
