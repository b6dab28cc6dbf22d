package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/trace"
)

// DefaultTenant is the tenant charged for submissions that name none.
const DefaultTenant = "default"

// JobSpec is the JSON body of POST /jobs: a dataset reference, a search
// space, a method and its options.
type JobSpec struct {
	// Tenant names who the job is charged to: the weighted-fair
	// scheduler's accounting key for slot grants, virtual-time charges
	// and quotas. Empty selects "default". Deliberately not part of
	// CacheScope — tenants submitting identical workloads share warm
	// evaluation caches.
	Tenant string `json:"tenant,omitempty"`
	// Dataset names one of the simulated paper datasets (dataset.Names).
	Dataset string `json:"dataset"`
	// Scale shrinks or grows the dataset. 0 selects 0.35, the repo's
	// laptop-scale default.
	Scale float64 `json:"scale,omitempty"`
	// DatasetSeed drives data synthesis and (for enhanced jobs) group
	// construction. Jobs with equal spec-except-seed/method share one
	// evaluation-cache scope, so it is separate from Seed. 0 selects 1.
	DatasetSeed uint64 `json:"dataset_seed,omitempty"`
	// Method names a registered optimizer (hpo.MethodNames or an alias;
	// GET /methods lists them with their capabilities).
	Method string `json:"method"`
	// Enhanced switches to the paper's "+" components (instance grouping,
	// general+special folds, UCB-β score).
	Enhanced bool `json:"enhanced,omitempty"`
	// NumHPs is the Table III search-space prefix length (1-8). 0
	// selects 4, the paper's HPO setting.
	NumHPs int `json:"hps,omitempty"`
	// MaxConfigs caps the configurations considered (SHA start set,
	// ASHA/PASHA samples, grid cap). 0 selects the method default.
	// Rejected for methods that do not honor it.
	MaxConfigs int `json:"max_configs,omitempty"`
	// Trials is the evaluation count of the full-budget methods (random,
	// smac, tpe). 0 selects the method default (10). Rejected for methods
	// that do not honor it.
	Trials int `json:"trials,omitempty"`
	// Seed drives the search (sampling, per-trial streams). 0 selects 1.
	Seed uint64 `json:"seed,omitempty"`
	// Iters is the MLP training epoch count. 0 selects 20.
	Iters int `json:"iters,omitempty"`
	// UseF1 scores classification folds and the final model by F1.
	UseF1 bool `json:"use_f1,omitempty"`
	// Workers is the job's own evaluation-goroutine count; every
	// evaluation still needs a slot of the shared pool. 0 selects the
	// pool size.
	Workers int `json:"workers,omitempty"`
	// TimeoutSec aborts the job after the given wall time. 0 = no limit.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

func (s JobSpec) withDefaults() JobSpec {
	if s.Tenant == "" {
		s.Tenant = DefaultTenant
	}
	if s.Scale == 0 {
		s.Scale = 0.35
	}
	if s.DatasetSeed == 0 {
		s.DatasetSeed = 1
	}
	if s.NumHPs == 0 {
		s.NumHPs = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Iters == 0 {
		s.Iters = 20
	}
	return s
}

// SpecFieldError names the JobSpec field that failed validation, so the
// HTTP layer can return a structured 400 pointing at the offending field.
type SpecFieldError struct {
	// Field is the JSON field name of the spec.
	Field string
	// Msg says what is wrong with it.
	Msg string
}

// Error implements error.
func (e *SpecFieldError) Error() string {
	return fmt.Sprintf("serve: %s: %s", e.Field, e.Msg)
}

// fieldErr builds a SpecFieldError.
func fieldErr(field, format string, args ...any) error {
	return &SpecFieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

// Validate reports the first problem with the spec. The method name is
// resolved against the hpo registry, and option fields a method cannot
// honor (per its capability flags) are rejected here — a named-field 400
// at submission — instead of being silently ignored at run time.
func (s JobSpec) Validate() error {
	if err := validTenant(s.Tenant); err != nil {
		return err
	}
	if _, err := dataset.SpecByName(s.Dataset); err != nil {
		return fieldErr("dataset", "%v", err)
	}
	method, ok := hpo.LookupMethod(s.Method)
	if !ok {
		return fieldErr("method", "unknown method %q (known: %s)",
			s.Method, strings.Join(hpo.MethodNames(), ", "))
	}
	info := method.Info()
	if s.MaxConfigs > 0 && !info.HonorsMaxConfigs {
		return fieldErr("max_configs", "method %q does not honor max_configs", info.Name)
	}
	if s.Workers > 0 && !info.HonorsWorkers {
		return fieldErr("workers", "method %q does not honor workers", info.Name)
	}
	if s.Trials > 0 && !info.HonorsTrials {
		return fieldErr("trials", "method %q does not honor trials (full-budget methods only)", info.Name)
	}
	if s.Scale < 0 || s.Scale > 3 {
		return fieldErr("scale", "scale %v out of (0, 3]", s.Scale)
	}
	if s.NumHPs < 0 || s.NumHPs > 8 {
		return fieldErr("hps", "hps %d out of [1, 8]", s.NumHPs)
	}
	if s.MaxConfigs < 0 {
		return fieldErr("max_configs", "negative max_configs")
	}
	if s.Trials < 0 {
		return fieldErr("trials", "negative trials")
	}
	if s.Workers < 0 {
		return fieldErr("workers", "negative workers")
	}
	if s.Iters < 0 || s.Iters > 10_000 {
		return fieldErr("iters", "iters %d out of [1, 10000]", s.Iters)
	}
	if s.TimeoutSec < 0 {
		return fieldErr("timeout_sec", "negative timeout_sec")
	}
	return nil
}

// validTenant bounds tenant names: they key scheduler accounting and
// appear in journals, metrics and CLI tables, so keep them short and
// free of separators.
func validTenant(name string) error {
	if len(name) > 64 {
		return fieldErr("tenant", "tenant name longer than 64 bytes")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fieldErr("tenant", "tenant name may only contain [a-zA-Z0-9._-], got %q", name)
		}
	}
	return nil
}

// CacheScope is the evaluation-cache key prefix: everything that shapes
// what Evaluate(config, budget, rng) computes — the data, the base model
// and the fold machinery — but not the search itself. Jobs agreeing on
// this string share cached fold scores, which is also why the cluster
// coordinator routes jobs by it: co-locating a scope's jobs on one node
// keeps its memoized evaluations warm. Defaults are applied first so an
// un-defaulted client spec maps to the same scope the worker computes.
func (s JobSpec) CacheScope() string {
	s = s.withDefaults()
	variant := "vanilla"
	if s.Enhanced {
		variant = "enhanced"
	}
	return fmt.Sprintf("%s|%g|%d|%d|%d|%t|%s",
		s.Dataset, s.Scale, s.DatasetSeed, s.NumHPs, s.Iters, s.UseF1, variant)
}

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted, waiting for a job slot.
	StatusQueued Status = "queued"
	// StatusRunning: evaluations in progress.
	StatusRunning Status = "running"
	// StatusDone: finished successfully; result available.
	StatusDone Status = "done"
	// StatusFailed: aborted with an error (including an exhausted
	// evaluation failure budget).
	StatusFailed Status = "failed"
	// StatusCancelled: stopped before finishing; Reason says why.
	StatusCancelled Status = "cancelled"
)

// Reason qualifies StatusCancelled: what stopped the job.
type Reason string

const (
	// ReasonUserCancel: DELETE /jobs/{id}.
	ReasonUserCancel Reason = "user_cancel"
	// ReasonTimeout: the spec's TimeoutSec expired.
	ReasonTimeout Reason = "timeout"
	// ReasonShutdown: the daemon was draining or shutting down.
	ReasonShutdown Reason = "shutdown"
	// ReasonInterrupted: the job was mid-run when the daemon died; set
	// during journal recovery.
	ReasonInterrupted Reason = "interrupted"
	// ReasonDeadline: an evaluation ran past -eval-timeout and was
	// abandoned by the watchdog. It qualifies the trace log's deadline
	// events (and the trial charged to the failure budget), not a
	// terminal job status.
	ReasonDeadline Reason = "deadline"
)

// terminalStatus reports whether a status is final.
func terminalStatus(s Status) bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Job is one tracked optimization run.
type Job struct {
	// ID is the handle used by the HTTP API.
	ID string
	// Spec is the submission after defaulting.
	Spec JobSpec

	cancel func()

	// token is the coordinator-issued submit token (idempotency key) this
	// job was accepted under, "" for direct submissions. Immutable after
	// registration; journaled with the submit record so a replayed journal
	// still deduplicates a re-sent submission.
	token string

	mu sync.Mutex
	// status moves only through Manager.transition; restoreResult sets a
	// job's that the journal holds as terminal.
	status    Status
	reason    Reason
	errMsg    string
	stack     string
	failures  int
	submitted time.Time
	started   time.Time
	finished  time.Time
	trials    []ckTrial // every recorded trial, as a preempt checkpoint carries it

	// The job's outcome as snapshots and the journal's terminal record
	// carry it (resultLocked). recordTrialLocked extends evaluations and
	// curve trial by trial; finish fills the rest for a run that
	// completed; restoreResult fills all of it for a job that was terminal
	// before the restart.
	evaluations int
	curve       []trace.Point
	bestConfig  map[string]any
	bestScore   *float64
	testScore   *float64

	// Preemption/resume state. segCancel cancels the current run
	// segment's context with cause errPreempted; preempts counts the
	// rung-boundary yields so far (capped by maxPreempts);
	// checkpointLen is how many leading trials were recorded in earlier
	// segments; replaySkip counts how many upcoming observations are
	// deterministic replays of that prefix and must not be re-recorded.
	segCancel     context.CancelCauseFunc
	preempts      int
	checkpointLen int
	replaySkip    int

	// maxRound is the highest halving round any recorded trial reached.
	maxRound int
}

// recordTrialLocked appends one observed trial and extends the curve by
// the incumbent recurrence — each point follows from the one before it,
// exactly as trace.Anytime computes the whole curve
// (TestJobCurveMatchesAnytime) — returning the new point plus whether the
// trial opened a new halving round (a rung promotion). Called with j.mu
// held — the manager keeps the lock across record+publish so the event
// stream order matches the trial order.
func (j *Job) recordTrialLocked(tr ckTrial) (pt trace.Point, newRound int, promoted bool) {
	j.trials = append(j.trials, tr)
	j.evaluations++
	var last trace.Point
	if n := len(j.curve); n > 0 {
		last = j.curve[n-1]
	}
	pt = trace.Point{
		Evaluations: j.evaluations,
		CumBudget:   last.CumBudget + tr.Budget,
		CumTime:     last.CumTime + time.Duration(tr.ElapsedNS),
		BestScore:   last.BestScore,
	}
	if len(j.curve) == 0 || tr.Score > pt.BestScore {
		pt.BestScore = tr.Score
	}
	j.curve = append(j.curve, pt)
	if tr.Round > j.maxRound {
		j.maxRound = tr.Round
		promoted = tr.Round > 0
		newRound = tr.Round
	}
	return pt, newRound, promoted
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Cancel asks the job to stop after its in-flight evaluations, recording
// the user_cancel reason unless another reason got there first. Safe to
// call in any state; cancelling a finished job is a no-op. The cancel
// func is read under the job lock because launch installs it after the
// job is visible in the table; launch re-checks the reason so a cancel
// landing in that window still takes effect.
func (j *Job) Cancel() { j.stop(ReasonUserCancel)() }

// stop records why the job is being stopped, unless it is finished or
// another reason got there first, and returns its cancel func.
func (j *Job) stop(reason Reason) (cancel func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.reason == "" && !terminalStatus(j.status) {
		j.reason = reason
	}
	return j.cancel
}

// tenant returns the job's (defaulted) tenant.
func (j *Job) tenant() string {
	if j.Spec.Tenant == "" {
		return DefaultTenant
	}
	return j.Spec.Tenant
}

// ckTrial is one recorded trial: everything the curve, snapshot and
// incumbent recurrence need, in the form a preempt checkpoint journals
// it. The configuration itself is omitted — the resume re-derives it
// deterministically from the spec seed, and the replayed observations
// are skipped rather than compared.
type ckTrial struct {
	Budget     int       `json:"budget"`
	Round      int       `json:"round"`
	Score      float64   `json:"score"`
	FoldScores []float64 `json:"fold_scores,omitempty"`
	Gamma      float64   `json:"gamma,omitempty"`
	ElapsedNS  int64     `json:"elapsed_ns"`
}

// checkpointState is the journal's preempt-record payload: the trial
// prefix completed before the slot was reclaimed, plus the preemption
// count so a restart keeps honoring the per-job cap.
type checkpointState struct {
	Preempts int       `json:"preempts"`
	Trials   []ckTrial `json:"trials"`
}

// restoreCheckpoint seeds a replayed job from a journaled checkpoint:
// the trial prefix is re-recorded through the same incumbent recurrence
// the live path uses (so the curve is bit-identical to what the dead
// process had), and the replay-skip counter arms the observer to let
// the optimizer regenerate that prefix without double-recording it.
func (j *Job) restoreCheckpoint(raw json.RawMessage) error {
	var ck checkpointState
	if err := json.Unmarshal(raw, &ck); err != nil {
		return fmt.Errorf("serve: decoding checkpoint: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, tr := range ck.Trials {
		j.recordTrialLocked(tr)
	}
	j.preempts = ck.Preempts
	j.checkpointLen = len(j.trials)
	return nil
}

// recordEvalFailure counts one definitive evaluation failure against the
// job's failure budget, keeping the most recent stack for the job
// record. It returns the new failure count and whether the failure is
// absorbed (budget not yet exhausted) — if not, the caller surfaces the
// error and the job fails.
func (j *Job) recordEvalFailure(stack string, budget int) (failures int, absorbed bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.failures++
	if stack != "" {
		j.stack = stack
	}
	return j.failures, j.failures <= budget
}

// Snapshot is a point-in-time JSON view of a job, served by GET
// /jobs/{id}. Curve uses the trace package's shared serialization.
type Snapshot struct {
	ID     string  `json:"id"`
	Status Status  `json:"status"`
	Spec   JobSpec `json:"spec"`
	// Tenant is the job's (defaulted) accounting tenant, surfaced at the
	// top level so listings and the coordinator's merged job view can
	// filter without digging into the spec.
	Tenant string `json:"tenant"`
	// Preemptions counts the rung-boundary slot yields this job has
	// absorbed; each one checkpointed its trials and re-queued the rest.
	Preemptions int `json:"preemptions,omitempty"`
	// Reason qualifies a cancelled status: user_cancel, timeout,
	// shutdown or interrupted.
	Reason Reason `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`
	// Stack is the captured stack of the most recent evaluation panic,
	// kept in the job record for post-mortems.
	Stack       string         `json:"stack,omitempty"`
	Failures    int            `json:"failures,omitempty"`
	SubmittedAt time.Time      `json:"submitted_at"`
	StartedAt   *time.Time     `json:"started_at,omitempty"`
	FinishedAt  *time.Time     `json:"finished_at,omitempty"`
	Evaluations int            `json:"evaluations"`
	Curve       []trace.Point  `json:"curve"`
	Sparkline   string         `json:"sparkline,omitempty"`
	BestConfig  map[string]any `json:"best_config,omitempty"`
	BestScore   *float64       `json:"best_score,omitempty"`
	TestScore   *float64       `json:"test_score,omitempty"`
	// LastSeq is the job's highest published event sequence number —
	// the resume point for /jobs/{id}/events (Last-Event-ID) and the
	// ?since=N incremental poll.
	LastSeq uint64 `json:"last_seq,omitempty"`
}

// Snapshot renders the job's current state, including the live anytime
// curve of a run still in flight.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := Snapshot{
		ID:          j.ID,
		Status:      j.status,
		Spec:        j.Spec,
		Tenant:      j.tenant(),
		Preemptions: j.preempts,
		Reason:      j.reason,
		Error:       j.errMsg,
		Stack:       j.stack,
		Failures:    j.failures,
		SubmittedAt: j.submitted,
		Evaluations: j.evaluations,
		// A copy: the job keeps appending to its own slice.
		Curve:      append([]trace.Point{}, j.curve...),
		BestConfig: j.bestConfig,
		BestScore:  j.bestScore,
		TestScore:  j.testScore,
	}
	if !j.started.IsZero() {
		t := j.started
		snap.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		snap.FinishedAt = &t
	}
	snap.Sparkline = trace.Sparkline(snap.Curve, 40)
	return snap
}
