// Package sched is bhpod's tenant-aware admission and dispatch layer: a
// weighted-fair queue (stride scheduling over per-tenant virtual time)
// that replaces the old FIFO pending queue. Every job submission names a
// tenant; the scheduler grants job slots to the tenant with the lowest
// virtual time, advances that time by the service consumed divided by
// the tenant's weight, and — when the slots are saturated — marks a
// running job of an over-served tenant as a preemption victim so the
// runner can yield at the next rung boundary. Per-tenant quotas bound
// how much any one tenant can queue, independent of the global cap.
//
// The scheduler also owns the evaluation slots — how many cores, across
// every running job, may train at once. A running job's workers call
// AcquireEval before each evaluation and ReleaseEval after it; slots go
// to waiters in arrival order, and the per-tenant and global inflight
// counts move under the same lock hold as the grant, so there is one
// count of what is on a core and nothing to keep in step with it. A slot
// nobody waits for can be lent to a running evaluation for one of its
// folds (TryAcquireEval/ReturnEval): same count, same hand-over to the
// first waiter when it comes back.
//
// Virtual-time math (stride/SFQ): each tenant carries vtime, a
// monotonically increasing float. Granting a slot charges a fixed
// grantCost/weight; each completed evaluation charges budget/weight
// (the budget is the trial's instance count — the natural service unit
// of this system). The dispatcher always picks the backlogged tenant
// with minimal (vtime, name) — the name is the deterministic tie-break
// — so over any saturated interval tenants receive service
// proportional to their weights. A tenant going from idle to backlogged
// has its vtime lifted to the minimum vtime of the currently active
// tenants, so idle periods earn no credit (the standard SFQ arrival
// rule); symmetrically it never loses the level it already reached.
//
// Preemption: when no slot is free and some waiting tenant's vtime is
// strictly below a running tenant's, the scheduler marks one running
// job of the most over-served such tenant (the youngest grant, losing
// the least progress) as a victim. The serve runner polls the mark at
// every trial observation — a rung boundary, where trial state is
// already journaled and replayable — and yields the slot voluntarily.
// The mark is re-evaluated as virtual times advance, so entitlement
// that emerges mid-run (the common case: the waiter arrived level and
// the runner kept charging) still triggers.
package sched

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// grantCost is the virtual-time charge for receiving a slot, on top of
// the per-evaluation budget charges. It keeps zero-trial jobs from
// being free and breaks symmetry between tenants that only ever submit
// cached work.
const grantCost = 1.0

// maxGrantLog bounds the retained grant-order log (a debugging and
// determinism-test aid, not an accounting structure).
const maxGrantLog = 1 << 16

// ErrQueueFull is returned by Enqueue when the global queued-job cap is
// reached. The serve layer maps it to its ErrOverloaded 429.
var ErrQueueFull = errors.New("sched: queue full")

// QuotaError is returned by Enqueue when the submitting tenant is at
// its per-tenant queued-job quota. The HTTP layer maps it to a 429
// priced for that tenant specifically.
type QuotaError struct {
	Tenant string
	Queued int
	Quota  int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("sched: tenant %q at quota (%d queued, quota %d)", e.Tenant, e.Queued, e.Quota)
}

// Config tunes a Scheduler.
type Config struct {
	// Slots is the number of jobs that may run concurrently (the serve
	// layer's MaxJobs). Minimum 1.
	Slots int
	// EvalSlots is the number of evaluation slots — cores evaluations may
	// train on at once, across all running jobs (the serve layer's
	// PoolSize). Minimum 1.
	EvalSlots int
	// MaxQueued caps jobs accepted but not yet granted a slot, across
	// all tenants. 0 = unbounded. Bypass enqueues (journal replays,
	// preemption resumes) are exempt and not counted against it.
	MaxQueued int
	// Quota caps one tenant's queued jobs. 0 = no per-tenant cap.
	Quota int
	// DefaultWeight is the weight of tenants absent from Weights. 0
	// selects 1.
	DefaultWeight int
	// Weights maps tenant name → weight (≥ 1). Higher weight = more
	// service per unit of virtual time.
	Weights map[string]int
}

// tenant is one tenant's scheduling state.
type tenant struct {
	name   string
	weight int
	vtime  float64
	queue  []*Ticket // waiting tickets, FIFO within the tenant

	queuedAdmitted int // queue entries counted against MaxQueued/Quota
	running        int
	inflight       int // evaluations currently holding evaluation slots

	granted     int64
	evals       int64
	service     float64 // cumulative charged budget units
	shed        int64
	preemptions int64
}

// ticket states.
const (
	tkQueued = iota
	tkGranted
	tkAbandoned
	tkReleased
)

// Ticket is one job's place in the scheduler: returned by Enqueue,
// waited on for a slot grant, and released when the job's run segment
// ends (completion or preemption yield).
type Ticket struct {
	// ID is the job ID the ticket was enqueued under.
	ID string
	// Tenant is the tenant the ticket is charged to.
	Tenant string

	s        *Scheduler
	grant    chan struct{}
	state    int
	admitted bool // counted against admission caps
	grantSeq uint64
}

// Scheduler is the weighted-fair queue. All methods are safe for
// concurrent use.
type Scheduler struct {
	cfg Config

	mu       sync.Mutex
	tenants  map[string]*tenant
	running  map[string]*Ticket // job ID → granted ticket
	victims  map[string]bool    // job IDs marked for rung-boundary preemption
	free     int
	queued   int // total waiting tickets
	admitted int // waiting tickets counted against MaxQueued
	grantSeq uint64
	grants   []string // grant-order log (job IDs), capped at maxGrantLog

	// Evaluation slots. inflight is the one count of held slots; a waiter
	// exists only while inflight == cfg.EvalSlots, because a released slot
	// passes straight to the first waiter.
	inflight    int
	evalWaiters []*evalWaiter

	preemptions int64
	quotaShed   int64
}

// New returns a scheduler with all slots free.
func New(cfg Config) *Scheduler {
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.EvalSlots < 1 {
		cfg.EvalSlots = 1
	}
	if cfg.DefaultWeight < 1 {
		cfg.DefaultWeight = 1
	}
	return &Scheduler{
		cfg:     cfg,
		tenants: map[string]*tenant{},
		running: map[string]*Ticket{},
		victims: map[string]bool{},
		free:    cfg.Slots,
	}
}

// tenantLocked returns (creating on first reference) the tenant record.
func (s *Scheduler) tenantLocked(name string) *tenant {
	t, ok := s.tenants[name]
	if !ok {
		w := s.cfg.DefaultWeight
		if cw, ok := s.cfg.Weights[name]; ok && cw >= 1 {
			w = cw
		}
		t = &tenant{name: name, weight: w}
		s.tenants[name] = t
	}
	return t
}

// minActiveVtimeLocked returns the minimum vtime over tenants with
// queued or running work, and whether any such tenant exists.
func (s *Scheduler) minActiveVtimeLocked() (float64, bool) {
	min, ok := 0.0, false
	for _, t := range s.tenants {
		if len(t.queue) == 0 && t.running == 0 {
			continue
		}
		if !ok || t.vtime < min {
			min, ok = t.vtime, true
		}
	}
	return min, ok
}

// Enqueue admits one job for tenant and returns its ticket: an
// EnqueueBatch of one. bypass true skips the global cap and the tenant
// quota — journal replays were admitted by the previous process, and a
// preempted job re-entering the queue was admitted at submission — and
// never errors.
func (s *Scheduler) Enqueue(tenantName, id string, bypass bool) (*Ticket, error) {
	tks, err := s.enqueue([]BatchItem{{Tenant: tenantName, ID: id}}, bypass)
	if err != nil {
		return nil, err
	}
	return tks[0], nil
}

// BatchItem is one entry of an EnqueueBatch.
type BatchItem struct {
	Tenant string
	ID     string
}

// EnqueueBatch admits every item or none: the whole batch is checked
// against the global MaxQueued cap (ErrQueueFull) and each tenant's
// Quota (QuotaError) before any ticket is created, under one lock, so a
// concurrent submission cannot split the batch. On success the returned
// tickets are index-aligned with items.
func (s *Scheduler) EnqueueBatch(items []BatchItem) ([]*Ticket, error) {
	return s.enqueue(items, false)
}

// enqueue is the one admission path: all-or-nothing cap checks unless
// bypassed, then one ticket per item — a tenant going from idle to
// active enters at the SFQ arrival clock — and one rebalance.
func (s *Scheduler) enqueue(items []BatchItem, bypass bool) ([]*Ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !bypass {
		if err := s.checkCapsLocked(items); err != nil {
			return nil, err
		}
	}
	out := make([]*Ticket, len(items))
	for i, it := range items {
		t := s.tenantLocked(it.Tenant)
		if len(t.queue) == 0 && t.running == 0 {
			if min, ok := s.minActiveVtimeLocked(); ok && min > t.vtime {
				t.vtime = min
			}
		}
		out[i] = &Ticket{ID: it.ID, Tenant: t.name, s: s, grant: make(chan struct{}), admitted: !bypass}
		t.queue = append(t.queue, out[i])
		s.queued++
		if !bypass {
			t.queuedAdmitted++
			s.admitted++
		}
	}
	s.rebalanceLocked()
	return out, nil
}

// checkCapsLocked refuses items that would push the admitted queue past
// MaxQueued or any one tenant past Quota, counting the shed against the
// tenants concerned. The error describes one job by the queue it met and
// a longer batch by that queue plus its own length.
func (s *Scheduler) checkCapsLocked(items []BatchItem) error {
	batch := len(items) > 1
	if s.cfg.MaxQueued > 0 && s.admitted+len(items) > s.cfg.MaxQueued {
		for _, it := range items {
			s.tenantLocked(it.Tenant).shed++
		}
		if !batch {
			return fmt.Errorf("%w (%d queued, max %d)", ErrQueueFull, s.admitted, s.cfg.MaxQueued)
		}
		return fmt.Errorf("%w (%d queued + %d batched, max %d)",
			ErrQueueFull, s.admitted, len(items), s.cfg.MaxQueued)
	}
	if s.cfg.Quota == 0 {
		return nil
	}
	perTenant := map[string]int{}
	for _, it := range items {
		perTenant[it.Tenant]++
	}
	// Deterministic error: report the alphabetically first tenant over
	// quota, not map-iteration luck.
	names := make([]string, 0, len(perTenant))
	for name := range perTenant {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t, n := s.tenantLocked(name), perTenant[name]
		if t.queuedAdmitted+n > s.cfg.Quota {
			t.shed += int64(n)
			s.quotaShed += int64(n)
			queued := t.queuedAdmitted
			if batch {
				queued += n
			}
			return &QuotaError{Tenant: name, Queued: queued, Quota: s.cfg.Quota}
		}
	}
	return nil
}

// rebalanceLocked grants free slots to the lowest-vtime backlogged
// tenants, then — if waiters remain with no free slot — refreshes the
// preemption victim mark.
func (s *Scheduler) rebalanceLocked() {
	for s.free > 0 {
		t := s.minQueuedTenantLocked()
		if t == nil {
			break
		}
		tk := t.queue[0]
		t.queue = t.queue[1:]
		s.queued--
		if tk.admitted {
			t.queuedAdmitted--
			s.admitted--
		}
		s.free--
		t.running++
		t.granted++
		t.vtime += grantCost / float64(t.weight)
		s.grantSeq++
		tk.state = tkGranted
		tk.grantSeq = s.grantSeq
		s.running[tk.ID] = tk
		if len(s.grants) < maxGrantLog {
			s.grants = append(s.grants, tk.ID)
		}
		close(tk.grant)
	}
	if s.free == 0 && s.queued > 0 {
		s.markVictimLocked()
	}
}

// minQueuedTenantLocked picks the backlogged tenant with minimal
// (vtime, name) — the deterministic dispatch order.
func (s *Scheduler) minQueuedTenantLocked() *tenant {
	var best *tenant
	for _, t := range s.tenants {
		if len(t.queue) == 0 {
			continue
		}
		if best == nil || t.vtime < best.vtime || (t.vtime == best.vtime && t.name < best.name) {
			best = t
		}
	}
	return best
}

// markVictimLocked marks at most one running job for rung-boundary
// preemption: a job of the running tenant with the highest vtime that
// strictly exceeds the lowest-vtime waiter's — i.e. the waiter is
// entitled to service before that tenant's next unit. Among that
// tenant's running jobs the youngest grant is chosen (least progress
// to re-enqueue). No-op while a victim is already marked.
func (s *Scheduler) markVictimLocked() {
	if len(s.victims) > 0 {
		return
	}
	waiter := s.minQueuedTenantLocked()
	if waiter == nil {
		return
	}
	var victim *Ticket
	var victimT *tenant
	for _, tk := range s.running {
		t := s.tenants[tk.Tenant]
		if t.vtime <= waiter.vtime {
			continue
		}
		if victim == nil ||
			t.vtime > victimT.vtime ||
			(t.vtime == victimT.vtime && tk.grantSeq > victim.grantSeq) {
			victim, victimT = tk, t
		}
	}
	if victim != nil {
		s.victims[victim.ID] = true
	}
}

// Wait blocks until the ticket is granted a slot or ctx is done. On a
// context error the ticket is withdrawn — removed from its queue, or,
// if the grant raced the cancellation, the slot is handed straight
// back — so Wait never returns an error while holding a slot.
func (tk *Ticket) Wait(ctx context.Context) error {
	select {
	case <-tk.grant:
		return nil
	case <-ctx.Done():
	}
	tk.s.mu.Lock()
	if tk.state == tkQueued {
		tk.s.withdrawLocked(tk)
		tk.s.mu.Unlock()
		return ctx.Err()
	}
	tk.s.mu.Unlock()
	// Granted between the select arms: release the slot we now own.
	tk.s.Release(tk)
	return ctx.Err()
}

// withdrawLocked removes a still-queued ticket from its tenant's queue.
func (s *Scheduler) withdrawLocked(tk *Ticket) {
	t := s.tenants[tk.Tenant]
	if i := slices.Index(t.queue, tk); i >= 0 {
		t.queue = slices.Delete(t.queue, i, i+1)
		s.queued--
		if tk.admitted {
			t.queuedAdmitted--
			s.admitted--
		}
	}
	tk.state = tkAbandoned
}

// Release returns a granted ticket's slot (run segment over — the job
// finished, failed, was cancelled, or is yielding to a preemption) and
// dispatches the next waiter. Idempotent; a never-granted ticket is a
// no-op.
func (s *Scheduler) Release(tk *Ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if tk.state != tkGranted {
		return
	}
	tk.state = tkReleased
	t := s.tenants[tk.Tenant]
	t.running--
	s.free++
	delete(s.running, tk.ID)
	delete(s.victims, tk.ID)
	s.rebalanceLocked()
}

// Preempt records a rung-boundary yield: the ticket's slot is released
// (dispatching the entitled waiter) and the job re-enters its tenant's
// queue with a fresh ticket, exempt from admission caps — it was
// admitted once at submission.
func (s *Scheduler) Preempt(tk *Ticket) *Ticket {
	s.mu.Lock()
	t := s.tenants[tk.Tenant]
	t.preemptions++
	s.preemptions++
	s.mu.Unlock()
	s.Release(tk)
	nt, _ := s.Enqueue(tk.Tenant, tk.ID, true) // bypass admission: never errors
	return nt
}

// ShouldPreempt reports whether the job is currently marked as a
// preemption victim. The runner polls it at rung boundaries.
func (s *Scheduler) ShouldPreempt(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.victims[id]
}

// Charge advances the tenant's virtual time by units of service (trial
// instance budgets) over its weight, then refreshes the victim mark —
// entitlement often emerges exactly here, as a running tenant charges
// past a waiter that arrived level with it.
func (s *Scheduler) Charge(tenantName string, units float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenantLocked(tenantName)
	t.vtime += units / float64(t.weight)
	t.service += units
	t.evals++
	if s.free == 0 && s.queued > 0 {
		s.markVictimLocked()
	}
}

// Restore re-seeds a tenant's cumulative accounting from journaled
// state after a restart, without touching virtual time: vtimes restart
// level — the SFQ idle-arrival rule applied to everyone — while the
// usage counters surfaced by /tenants survive exactly.
func (s *Scheduler) Restore(tenantName string, service float64, evals, preemptions int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenantLocked(tenantName)
	t.service += service
	t.evals += evals
	t.preemptions += preemptions
	s.preemptions += preemptions
}

// evalWaiter is one AcquireEval blocked because every evaluation slot is
// held.
type evalWaiter struct {
	tenant  *tenant
	grant   chan struct{}
	granted bool
}

// AcquireEval blocks until one of the EvalSlots evaluation slots is
// free or ctx is done, and counts the evaluation inflight for the tenant
// and globally in the same lock hold as the grant. Waiters are served in
// arrival order. Cancellation has priority over a simultaneous grant —
// the slot goes straight back — so AcquireEval never returns an error
// while holding a slot and never returns nil for a context that was
// already done: "on error, don't ReleaseEval" cannot leak a slot.
func (s *Scheduler) AcquireEval(ctx context.Context, tenantName string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	t := s.tenantLocked(tenantName)
	if s.inflight < s.cfg.EvalSlots {
		t.inflight++
		s.inflight++
		s.mu.Unlock()
		return nil
	}
	w := &evalWaiter{tenant: t, grant: make(chan struct{})}
	s.evalWaiters = append(s.evalWaiters, w)
	s.mu.Unlock()

	select {
	case <-w.grant:
		if ctx.Err() == nil {
			return nil
		}
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.granted {
		// Granted between the select arms, or to a context that was done
		// by then: pass the slot on.
		s.releaseEvalLocked(t)
		return ctx.Err()
	}
	if i := slices.Index(s.evalWaiters, w); i >= 0 {
		s.evalWaiters = slices.Delete(s.evalWaiters, i, i+1)
	}
	return ctx.Err()
}

// ReleaseEval returns the evaluation slot a successful AcquireEval for
// the same tenant took.
func (s *Scheduler) ReleaseEval(tenantName string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseEvalLocked(s.tenants[tenantName])
}

// TryAcquireEval lends an idle evaluation slot to an evaluation that
// already holds one — a fold of it trains there — and reports whether one
// was idle. It never waits and never succeeds ahead of a waiter: one
// exists only while every slot is held. The slot counts in Inflight, not
// in any tenant's inflight evaluations, and goes back through ReturnEval.
func (s *Scheduler) TryAcquireEval() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight == s.cfg.EvalSlots {
		return false
	}
	s.inflight++
	return true
}

// ReturnEval gives back a slot TryAcquireEval lent; the first waiter, if
// any, has it before ReturnEval returns.
func (s *Scheduler) ReturnEval() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseEvalLocked(nil)
}

// releaseEvalLocked frees a slot — one of t's, or a lent one for a nil t —
// and hands it to the first waiter, if any.
func (s *Scheduler) releaseEvalLocked(t *tenant) {
	if t != nil {
		t.inflight--
	}
	s.inflight--
	if len(s.evalWaiters) == 0 {
		return
	}
	w := s.evalWaiters[0]
	s.evalWaiters = s.evalWaiters[1:]
	w.granted = true
	w.tenant.inflight++
	s.inflight++
	close(w.grant)
}

// Inflight returns the evaluation slots currently held, by an evaluation
// or lent to one of its folds — the pool_in_use gauge.
func (s *Scheduler) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Queued returns the total waiting jobs (admitted and bypass alike).
func (s *Scheduler) Queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// Overloaded reports whether the global admission cap is reached.
func (s *Scheduler) Overloaded() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.MaxQueued > 0 && s.admitted >= s.cfg.MaxQueued
}

// TenantQueued returns one tenant's admission-counted queue depth.
func (s *Scheduler) TenantQueued(tenantName string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[tenantName]; ok {
		return t.queuedAdmitted
	}
	return 0
}

// Share returns the tenant's weighted fair share of service in (0, 1]:
// weight over the sum of active tenants' weights (itself included even
// when idle — the share it would get if it submitted now). Used to
// price per-tenant Retry-After.
func (s *Scheduler) Share(tenantName string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenantLocked(tenantName)
	total := t.weight
	for _, o := range s.tenants {
		if o != t && (len(o.queue) > 0 || o.running > 0) {
			total += o.weight
		}
	}
	return float64(t.weight) / float64(total)
}

// Preemptions returns the total rung-boundary preemptions recorded.
func (s *Scheduler) Preemptions() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.preemptions
}

// QuotaShed returns submissions shed by per-tenant quota (a subset of
// the serve layer's total shed count).
func (s *Scheduler) QuotaShed() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quotaShed
}

// Grants returns the grant-order log: job IDs in the order they were
// granted slots, capped at maxGrantLog. The determinism tests compare
// these across worker counts.
func (s *Scheduler) Grants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.grants))
	copy(out, s.grants)
	return out
}

// TenantStats is one tenant's scheduler-side usage snapshot.
type TenantStats struct {
	Tenant        string  `json:"tenant"`
	Weight        int     `json:"weight"`
	VTime         float64 `json:"vtime"`
	Queued        int     `json:"queued"`
	Running       int     `json:"running"`
	InflightEvals int     `json:"inflight_evals"`
	Granted       int64   `json:"granted"`
	Evaluations   int64   `json:"evaluations"`
	ServiceUnits  float64 `json:"service_units"`
	Shed          int64   `json:"shed"`
	Preemptions   int64   `json:"preemptions"`
}

// Stats snapshots every tenant the scheduler has seen, sorted by name.
func (s *Scheduler) Stats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, TenantStats{
			Tenant:        t.name,
			Weight:        t.weight,
			VTime:         t.vtime,
			Queued:        len(t.queue),
			Running:       t.running,
			InflightEvals: t.inflight,
			Granted:       t.granted,
			Evaluations:   t.evals,
			ServiceUnits:  t.service,
			Shed:          t.shed,
			Preemptions:   t.preemptions,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
