package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/evalcache"
	"enhancedbhpo/internal/serve/journal"
	"enhancedbhpo/internal/serve/sched"
	"enhancedbhpo/internal/serve/shipper"
	"enhancedbhpo/internal/serve/tracestore"
)

// ErrOverloaded is returned by Submit when the scheduler's global
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
	// DeterministicTiming replaces each observed trial's wall-clock
	// elapsed time with a synthetic duration proportional to its budget
	// (budget × 1ms), making anytime curves — including their CumTime
	// column — bit-identical across runs, preemptions and restarts. Used
	// by the determinism tests and reproducibility studies; production
	// keeps real timings.
	DeterministicTiming bool
	// EvalTimeout abandons an evaluation that has run longer than this:
	// its pool slot is released, the wedged goroutine's eventual result
	// is discarded, and the trial is charged to the job's failure budget
	// (worst-case score). 0 disables the watchdog.
	EvalTimeout time.Duration
	// DataDir, when non-empty, enables journaled persistence: job specs
	// and terminal results are appended to a segmented JSONL journal in
	// DataDir so NewManagerFromJournal can rebuild the job table after a
	// restart.
	DataDir string
	// JournalMaxBytes rotates the journal's active segment past this
	// size and re-compacts the sealed history in the background, keeping
	// the directory bounded at roughly the compacted state plus two
	// segments. 0 selects 4 MiB; negative disables rotation.
	JournalMaxBytes int64
	// ScopeTTL releases an evalScope's dataset/fold memory once no live
	// job has referenced it for this long; the scope is rebuilt
	// deterministically on next use (same spec → same data, folds and
	// cache scope key, so only the memoized scores are lost). 0 disables
	// eviction.
	ScopeTTL time.Duration
	// EvalAttempts is the total tries per evaluation before it counts as
	// a definitive failure (panics and errors alike; retries are spaced
	// by a jittered RetryBackoff). 0 selects 2.
	EvalAttempts int
	// RetryBackoff is the base delay before an evaluation retry; the
	// actual sleep is jittered in [backoff/2, backoff). 0 selects 50ms.
	RetryBackoff time.Duration
	// FailureBudget is how many definitive evaluation failures a job
	// absorbs — each failed trial scores worst-case instead of aborting —
	// before the job flips to StatusFailed. 0 selects 3.
	FailureBudget int
	// EventBuffer is each event subscriber's buffered window (SSE
	// streams, internal consumers). A subscriber lagging further than
	// this has events dropped from its channel — counted in
	// events_dropped_slow_consumer — and recovers via Last-Event-ID
	// resume; the retained history loses nothing. 0 selects 256.
	EventBuffer int
	// TraceMaxBytes is the segment size of the durable trace log all jobs
	// share: the active segment is sealed, immutable from then on, and
	// the next one started once it has grown past this. Only meaningful
	// with DataDir set. 0 selects 1 MiB; negative never rotates.
	TraceMaxBytes int64
	// KernelWorkers caps the matmul-kernel goroutines of each pooled
	// evaluation. 0 selects GOMAXPROCS/PoolSize (at least 1); explicit
	// values are clamped so PoolSize × KernelWorkers never exceeds
	// GOMAXPROCS. Kernel results are bitwise-identical for any value,
	// so this only shapes CPU use.
	KernelWorkers int
	// WrapEvaluator, when non-nil, wraps each job's evaluator between
	// the pool gate and the cache. It is the fault-injection point used
	// by the crash/restart and chaos tests and is applied per job as the
	// job starts optimizing.
	WrapEvaluator func(jobID string, inner hpo.Evaluator) hpo.Evaluator
	// NodeName identifies this daemon in a cluster: it is surfaced in
	// /healthz and /metrics so a coordinator's probes and a replacement
	// node's operators can tell nodes apart. Empty outside a cluster.
	NodeName string
	// Shipper, when non-nil, replicates the journal and trace files to
	// its sink as they grow and seal, so a replacement node can rebuild
	// this node's job table after the machine dies (shipper.Restore +
	// NewManagerFromJournal). Requires DataDir. The manager wires the
	// journal and trace-store hooks; ownership (Close) stays with the
	// caller, which should close it after Shutdown so the final state
	// flushes.
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
	if c.JournalMaxBytes == 0 {
		c.JournalMaxBytes = 4 << 20
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.TraceMaxBytes == 0 {
		c.TraceMaxBytes = 1 << 20
	}
	if c.EvalAttempts <= 0 {
		c.EvalAttempts = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	if c.FailureBudget <= 0 {
		c.FailureBudget = 3
	}
	maxProcs := runtime.GOMAXPROCS(0)
	if c.KernelWorkers <= 0 || c.KernelWorkers*c.PoolSize > maxProcs {
		c.KernelWorkers = maxProcs / c.PoolSize
		if c.KernelWorkers < 1 {
			c.KernelWorkers = 1
		}
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
	cv    *hpo.CVEvaluator
	test  *dataset.Dataset
	useF1 bool
}

func (f refitter) FullBudget() int { return f.cv.FullBudget() }

func (f refitter) Evaluate(cfg search.Config, _ int, r *rng.RNG) ([]float64, error) {
	model, err := f.cv.FitFull(cfg, r.Uint64())
	if err != nil {
		return nil, err
	}
	if f.useF1 && f.test.Kind == dataset.Classification {
		return []float64{model.ScoreF1(f.test)}, nil
	}
	return []float64{model.Score(f.test)}, nil
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

	// hub fans each job's telemetry (curve points, rung promotions,
	// retries, deadline abandonments, failure-budget charges, lifecycle
	// transitions) out to SSE subscribers; traces, when persistence is
	// on, durably records the same stream per job behind the hub's sink.
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

	journal *journal.Writer // nil when persistence is disabled

	// boot is what NewManagerFromJournal cost, set once before it returns:
	// the whole call, replay through compaction, the trace log's filing
	// pass beside it; jobs came back, live of them were launched again.
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
		SubscriberBuffer: cfg.EventBuffer,
		Sink: func(ev events.Event) {
			// m.traces is set (at most once) before any job can publish,
			// so this read never races the write in NewManagerFromJournal.
			if m.traces == nil {
				return
			}
			if err := m.traces.Append(ev); err != nil {
				m.traceErrs.Add(1)
			}
		},
	})
	if cfg.ScopeTTL > 0 {
		go m.scopeJanitor()
	}
	return m
}

// shipHook replicates a log's segments through ship, nil without one:
// appends ship incrementally, a sealed file ships its tail and is sealed
// at the sinks. sub is the log's directory relative to the data
// directory, "" or ending in a slash.
func shipHook(ship *shipper.Shipper, sub string) func(name string, sealed bool) {
	if ship == nil {
		return nil
	}
	return func(name string, sealed bool) {
		if sealed {
			ship.Sealed(sub + name)
		} else {
			ship.Changed(sub + name)
		}
	}
}

// NewManagerFromJournal opens (creating if needed) the journal in
// cfg.DataDir, replays it, and returns a manager with the previous
// process's job table rebuilt: terminal jobs are restored with their
// results and anytime curves, jobs that were mid-run when the process
// died are marked cancelled with reason "interrupted", and jobs that
// were still queued are re-enqueued and run again.
//
// A boot decodes the journal once and the trace log not at all. In order:
// the journal is replayed, every job's spec decoded, mid-run jobs
// reclassified and the journal compacted to one submit (plus one
// terminal) record per job — while, on a goroutine of its own because
// the trace log is an independent file, tracestore.ReadAll files the
// log's lines under their jobs. The two are joined, this life's trace
// segment and journal segment opened, and the whole table built:
// register, sched.Restore, and the event feed primed with the sequence
// number and done flag of the job's newest trace event, its history left
// as lines until somebody reads it (events.Hub.Prime). Only then are the
// queued jobs launched, so nothing runs before the table is whole and a
// boot that fails leaves nothing running and nothing open. While the
// daemon runs, journal segments past JournalMaxBytes are rotated and
// re-compacted online.
func NewManagerFromJournal(cfg Config) (_ *Manager, err error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: NewManagerFromJournal needs Config.DataDir")
	}
	begin := time.Now()
	type filedTrace struct {
		history map[string]tracestore.History
		err     error
		took    time.Duration
	}
	filed := make(chan filedTrace, 1) // buffered: a journal error returns without waiting for the reader
	go func() {
		history, err := tracestore.ReadAll(TraceDir(cfg.DataDir))
		filed <- filedTrace{history, err, time.Since(begin)}
	}()
	states, err := journal.Replay(cfg.DataDir)
	if err != nil {
		return nil, err
	}
	specs := make([]JobSpec, len(states))
	for i := range states {
		st := &states[i]
		if len(st.Spec) > 0 {
			if err := json.Unmarshal(st.Spec, &specs[i]); err != nil {
				return nil, fmt.Errorf("serve: replaying %s: %w", st.ID, err)
			}
		}
		if st.Status != string(StatusRunning) {
			continue
		}
		if len(st.Checkpoint) > 0 {
			// The job had yielded at a rung boundary at least once before
			// the process died: its journaled checkpoint makes it resumable
			// instead of lost — back to queued, to replay from the prefix.
			st.Status = string(StatusQueued)
			continue
		}
		st.Status = string(StatusCancelled)
		st.Reason = string(ReasonInterrupted)
		st.FinishedAt = begin
	}
	if err := journal.Compact(cfg.DataDir, states); err != nil {
		return nil, err
	}
	m := NewManager(cfg)
	m.boot.journal, m.boot.jobs = time.Since(begin), len(states)
	defer func() {
		if err != nil {
			// Nothing is registered yet: this stops the janitor and closes
			// whichever of the two logs did open. The boot's error is the
			// one to report.
			_ = m.Shutdown(context.Background())
		}
	}()
	// The filing pass read the log before this life's segment is opened.
	log := <-filed
	m.boot.trace = log.took
	if log.err != nil {
		m.traceErrs.Add(1)
	}
	// Trace segments ship under their directory-relative name so a
	// restored replica has the same traces/ layout the manager opens.
	traces, err := tracestore.Open(TraceDir(cfg.DataDir), tracestore.Options{
		MaxBytes: m.cfg.TraceMaxBytes,
		OnChange: shipHook(cfg.Shipper, "traces/"),
	})
	if err != nil {
		return nil, err
	}
	m.traces = traces
	w, err := journal.OpenOptions(cfg.DataDir, journal.Options{
		MaxBytes: m.cfg.JournalMaxBytes,
		OnError:  func(error) { m.journalErrs.Add(1) },
		OnChange: shipHook(cfg.Shipper, ""),
	})
	if err != nil {
		return nil, err
	}
	m.journal = w
	if cfg.Shipper != nil {
		// Ship whatever is already on disk (compacted bases, sealed
		// segments, pre-crash traces) so the replica is complete even for
		// files that will never change again.
		cfg.Shipper.SnapshotRoot()
	}
	var live []*Job
	for i, st := range states {
		job := &Job{
			ID:        st.ID,
			Spec:      specs[i],
			token:     st.Token,
			cancel:    func() {},
			status:    StatusQueued,
			submitted: st.SubmittedAt,
			started:   st.StartedAt,
			// Preemption counts survive restarts like the rest of the
			// accounting; restoreCheckpoint overwrites this with the
			// checkpoint's own (authoritative) count for resumable jobs.
			preempts: st.Preemptions,
		}
		m.register(job)
		// Re-arm the event feed: sequence numbers continue where the dead
		// process stopped, and subscribers can resume (or fetch the full
		// pre-crash curve) across the restart.
		history := log.history[st.ID]
		if last, ok := history.Last(); ok {
			m.hub.Prime(st.ID, last.Seq, last.Terminal, func() []events.Event {
				evs, err := history.Events()
				if err != nil {
					m.traceErrs.Add(1)
				}
				return evs
			})
		}
		if st.Terminal() {
			job.restoreResult(st)
			if !m.hub.Done(job.ID) {
				m.transition(job, phaseRestored, st.FinishedAt, nil)
			}
		} else {
			// Queued (or checkpoint-resumable) when the process died: run it
			// again under this manager (the compacted journal already holds
			// its submit record, so launching appends only the new
			// transitions).
			live = append(live, job)
			if len(st.Checkpoint) > 0 && job.restoreCheckpoint(st.Checkpoint) != nil {
				// An undecodable checkpoint is dropped, not fatal: the job
				// still runs, just from scratch.
				m.journalErrs.Add(1)
			}
		}
		// Re-seed the tenant's cumulative accounting (service = the
		// curve's final cumulative budget — exactly what was charged) so
		// /tenants survives the restart; virtual times restart level.
		var service float64
		if n := len(job.curve); n > 0 {
			service = float64(job.curve[n-1].CumBudget)
		}
		m.sched.Restore(job.tenant(), service, int64(st.Evaluations), int64(st.Preemptions))
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

// TraceDir is where a data directory keeps its trace log: the segments
// (trace-NNNNNN.jsonl) all jobs' events are appended to.
func TraceDir(dataDir string) string {
	return filepath.Join(dataDir, "traces")
}

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
// segment so the slot is yielded at this trial boundary. Called
// concurrently by optimizer workers; the job lock is held across
// record-and-publish so the event stream's curve points arrive in the
// same order as the job's trial list — the streamed curve is always a
// prefix of what Snapshot computes. (Lock order job.mu → feed.mu and
// job.mu → sched.mu are both safe: no hub or scheduler path takes a job
// lock.)
func (m *Manager) observeTrial(job *Job, tr hpo.Trial) {
	job.mu.Lock()
	defer job.mu.Unlock()
	if m.cfg.DeterministicTiming {
		tr.Elapsed = time.Duration(tr.Budget) * time.Millisecond
	}
	if job.replaySkip > 0 {
		// Replaying the checkpointed prefix after a preemption or restart:
		// these trials were already recorded, published and charged in the
		// segment that produced the checkpoint.
		job.replaySkip--
		return
	}
	pt, newRound, promoted := job.recordTrialLocked(ckTrial{
		Budget:     tr.Budget,
		Round:      tr.Round,
		Score:      tr.Score,
		FoldScores: tr.FoldScores,
		Gamma:      tr.Gamma,
		ElapsedNS:  int64(tr.Elapsed),
	})
	if promoted {
		m.publish(job.ID, events.Event{Type: events.TypeRung, Round: newRound, Budget: tr.Budget})
	}
	m.publish(job.ID, events.Event{Type: events.TypeCurvePoint, Point: &pt})
	m.sched.Charge(job.tenant(), float64(tr.Budget))
	if job.preempts < maxPreempts &&
		len(job.trials) > job.checkpointLen && job.segCancel != nil &&
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
	var n int
	if _, err := fmt.Sscanf(job.ID, "job-%d", &n); err == nil && n > m.seq {
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

// Submit validates the spec, applies admission control (the global
// queued cap and the submitting tenant's quota), registers a queued job,
// journals the submission and starts the job in the background. A full
// queue sheds the submission with ErrOverloaded; a tenant at quota with
// a *sched.QuotaError.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	return m.SubmitToken(spec, "")
}

// SubmitToken is Submit with an idempotency key: a coordinator retrying
// a submission it is not sure was accepted (the node died between
// routing and ack, or the retry landed on a restored replacement that
// replayed the original) sends the same token, and a token the manager
// has already accepted returns the existing job instead of running the
// work twice. Tokens persist in the journal's submit records, so the
// guarantee survives restart and restore. An empty token is an ordinary
// submission.
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
// waits for runners to exit or ctx to expire, and closes the journal so
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
	if m.journal != nil {
		if cerr := m.journal.Close(); cerr != nil && err == nil {
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
	ds, err := dataset.SpecByName(spec.Dataset)
	if err != nil {
		return nil, err
	}
	train, test, err := dataset.Synthesize(ds.Scaled(spec.Scale), spec.DatasetSeed)
	if err != nil {
		return nil, err
	}
	dataset.Standardize(train, test)
	var comps hpo.Components
	if spec.Enhanced {
		comps, err = hpo.EnhancedComponents(train, hpo.EnhancedOptions{}, rng.New(spec.DatasetSeed^0x9e37))
		if err != nil {
			return nil, err
		}
	} else {
		comps = hpo.VanillaComponents(0)
	}
	if spec.UseF1 {
		comps = comps.WithF1()
	}
	base := nn.DefaultConfig()
	base.MaxIter = spec.Iters
	base.LearningRateInit = 0.02
	base.KernelWorkers = m.cfg.KernelWorkers
	cv := hpo.NewCVEvaluator(train, base, comps)
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
		refits: evalcache.New(refitter{cv: cv, test: test, useF1: spec.UseF1}, cacheEntries),
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
	// PoolInUse and PoolInflight are the same number, the scheduler's
	// count of held evaluation slots — by an evaluation or lent to one of
	// its folds; both names are read by clients.
	PoolInUse    int   `json:"pool_in_use"`
	PoolInflight int   `json:"pool_inflight"`
	Evaluations  int64 `json:"evaluations"`
	// FoldsLent counts folds trained on a borrowed slot; the other
	// cache_misses × K − folds_lent ran on their evaluation's own. Zero
	// under load means the job mix leaves no slot idle; zero on a quiet
	// node means -workers is what bounds a job.
	FoldsLent         int64   `json:"folds_lent"`
	EvaluationsPerSec float64 `json:"evaluations_per_sec"`
	EvalsFused        int64   `json:"evals_fused"`    // always 0: the fuser is gone; bench/ (frozen) still reads it
	FuseFallbacks     int64   `json:"fuse_fallbacks"` // always 0, as above; both go with bench's serve.* fuse metrics
	Kernel            string  `json:"kernel"`
	CPUFeatures       string  `json:"cpu_features,omitempty"`
	KernelWorkers     int     `json:"kernel_workers"`
	TrialFailures     int64   `json:"trial_failures"`
	DeadlineExceeded  int64   `json:"deadline_exceeded"`
	EventSubscribers  int64   `json:"event_subscribers"`
	EventsPublished   int64   `json:"events_published"`
	EventsDropped     int64   `json:"events_dropped_slow_consumer"`
	TraceStoreBytes   int64   `json:"trace_store_bytes"`
	TraceStoreErrors  int64   `json:"trace_store_errors"`
	JournalErrors     int64   `json:"journal_errors"`
	JournalSegments   int     `json:"journal_segments"`
	JournalBytes      int64   `json:"journal_bytes"`
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
	// What the boot from the journal cost (all 0 without one): the whole
	// NewManagerFromJournal call, its replay + compaction, and the trace
	// log's filing pass, which runs beside that; and the jobs it restored.
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
		Kernel:           mat.ActiveKernel().String(),
		CPUFeatures:      mat.CPUFeatures(),
		KernelWorkers:    m.cfg.KernelWorkers,
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
	out.EventsDropped = es.Dropped
	if m.traces != nil {
		out.TraceStoreBytes = m.traces.Bytes()
	}
	if uptime > 0 {
		out.EvaluationsPerSec = float64(out.Evaluations) / uptime
	}
	if m.cfg.DataDir != "" {
		js := journal.DirStats(m.cfg.DataDir)
		out.JournalSegments = js.Segments
		out.JournalBytes = js.Bytes
	}
	if m.cfg.Shipper != nil {
		ss := m.cfg.Shipper.Stats()
		out.SegmentsShipped = ss.SegmentsShipped
		out.ShipRetries = ss.Retries
		out.ShipBytes = ss.Bytes
	}
	out.PendingDepth = m.sched.Queued()
	out.PoolInUse = m.sched.Inflight()
	out.PoolInflight = out.PoolInUse
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
