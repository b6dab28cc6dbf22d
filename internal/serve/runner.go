package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/serve/sched"
)

// errPreempted is the cancellation cause of a run segment yielded at a
// rung boundary: the scheduler marked the job a victim and observeTrial
// cancelled the segment context with this cause. The runner tells a
// preemption apart from a real cancel by this cause plus the job context
// still being live.
var errPreempted = errors.New("serve: preempted at rung boundary")

// run executes one job as a sequence of run segments: wait on the
// scheduler ticket for a job slot, build the shared scope, run the
// optimizer over the pooled, cached evaluator — and either finish (refit
// the winner, score it on the held-out test split) or, when the
// weighted-fair scheduler reclaimed the slot at a rung boundary,
// checkpoint the completed trials, re-enqueue, and resume in a later
// segment by deterministic replay.
func (m *Manager) run(ctx context.Context, job *Job, cancel context.CancelFunc, ticket *sched.Ticket) {
	defer m.wg.Done()
	defer cancel()

	for {
		// Queued until the scheduler grants the ticket; cancellation while
		// queued withdraws it without ever taking an evaluation slot.
		if err := ticket.Wait(ctx); err != nil {
			m.finish(job, ticket, nil, nil, err)
			return
		}

		segCtx, segCancel := context.WithCancelCause(ctx)
		m.transition(job, phaseRunning, time.Now(), func() { job.segCancel = segCancel })

		// The scope stays pinned (TTL eviction cannot take it) until the
		// segment is over — finish() refits through scope.refits.
		scope, release, err := m.acquireScope(job.Spec)
		if err != nil {
			segCancel(nil)
			m.finish(job, ticket, nil, nil, err)
			return
		}
		res, err := m.optimize(segCtx, job, scope)
		if context.Cause(segCtx) == errPreempted && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// A rung-boundary yield, not a real cancel: checkpoint, give the
			// slot back, rejoin the queue, go around.
			segCancel(nil)
			release()
			m.transition(job, phasePreempted, time.Now(), nil)
			ticket = m.sched.Preempt(ticket)
			continue
		}
		segCancel(nil)
		// finish holds the job slot through the final refit so that it
		// competes for CPU like any other evaluation.
		m.finish(job, ticket, scope, res, err)
		release()
		return
	}
}

// optimize dispatches to the context-aware optimizer selected by the spec.
func (m *Manager) optimize(ctx context.Context, job *Job, scope *evalScope) (*hpo.Result, error) {
	spec := job.Spec
	space, err := search.TableIIISpace(spec.NumHPs)
	if err != nil {
		return nil, err
	}
	comps := scope.comps.WithObserver(func(tr hpo.Trial) { m.observeTrial(job, tr) })
	var inner hpo.Evaluator = scope.cache
	if m.cfg.WrapEvaluator != nil {
		// Fault-injection point: sits between the pool gate (with its
		// recover/retry armor) and the cache, so injected panics and
		// errors exercise the real isolation path.
		inner = m.cfg.WrapEvaluator(job.ID, inner)
	}
	ev := &pooledEvaluator{inner: inner, m: m, job: job, ctx: ctx}
	method, ok := hpo.LookupMethod(spec.Method)
	if !ok {
		// Unreachable for submitted jobs: Validate rejects unknown methods.
		return nil, fmt.Errorf("serve: unknown method %q", spec.Method)
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = m.cfg.PoolSize
	}
	// core.Run dispatches through the same registry, on components and a
	// refit stream from the same core rule, so a served job and a
	// core.Run of one spec are the same computation. Workers only reaches
	// methods that honor it (Validate rejects an explicit setting for the
	// rest); the pool-size default is harmless for methods that ignore it,
	// and the scores of those that honor it do not depend on it.
	return method.Run(ctx, space, ev, comps, hpo.RunOptions{
		Seed:       spec.Seed,
		Workers:    workers,
		MaxConfigs: spec.MaxConfigs,
		Trials:     spec.Trials,
	})
}

// finish computes the job's outcome and ends it with the terminal
// transition. A successful run is refitted on the full training set and
// scored on the test split, matching the paper's final step. Cancelled
// jobs keep the reason set at the cancel source (user_cancel, shutdown)
// or derived here (timeout). The ticket's slot goes back in the same
// step as the terminal status, so no reader sees a finished job still
// holding one (a never-granted ticket's release is a no-op).
func (m *Manager) finish(job *Job, ticket *sched.Ticket, scope *evalScope, res *hpo.Result, err error) {
	status := StatusDone
	var testScore *float64
	timedOut := errors.Is(err, context.DeadlineExceeded)
	switch {
	case errors.Is(err, context.Canceled), timedOut:
		status = StatusCancelled
		res = nil
		err = nil
	case err != nil:
		status = StatusFailed
		res = nil
	default:
		score, ferr := scope.refits.Evaluate(res.Best, scope.refits.FullBudget(), core.RefitStream(job.Spec.Seed))
		if ferr != nil {
			status = StatusFailed
			err = ferr
			res = nil
		} else {
			ts := score[0]
			testScore = &ts
		}
	}
	m.transition(job, phaseTerminal, time.Now(), func() {
		m.sched.Release(ticket)
		job.status = status
		switch {
		case status != StatusCancelled:
			// A speculative shutdown mark on a job that still finished (or
			// failed) on its own does not apply.
			job.reason = ""
		case timedOut:
			// The deadline fired before any explicit cancel: the context
			// reports DeadlineExceeded only in that case.
			job.reason = ReasonTimeout
		case job.reason == "":
			job.reason = ReasonShutdown
		}
		if err != nil {
			job.errMsg = err.Error()
		}
		if res != nil {
			if sp := res.Best.Space(); sp != nil {
				job.bestConfig = make(map[string]any, len(sp.Dims))
				for _, dim := range sp.Dims {
					job.bestConfig[dim.Name] = res.Best.Value(dim.Name)
				}
			}
			job.bestScore = &res.BestScore
			job.testScore = testScore
		}
	})
}
