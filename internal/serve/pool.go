// Package serve is the HPO job service behind cmd/bhpod: a long-running
// manager that accepts job submissions over HTTP, schedules their
// evaluations on one shared bounded worker pool, memoizes fold scores in
// per-dataset evaluation caches, streams live anytime curves from runs in
// flight, and cancels jobs on request. It turns the blocking library calls
// of internal/hpo into an observable, multi-tenant service.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"enhancedbhpo/internal/events"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// panicError is an evaluation panic converted to an error by the
// pooled evaluator's recover armor, with the goroutine stack captured at
// the panic site.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("evaluation panicked: %v", e.value)
}

// pooledEvaluator gates a job's evaluations through the scheduler's
// evaluation slots — across all jobs, no more than Config.PoolSize cores
// train at once, the service's one global knob for CPU pressure — counts them
// for the service metrics, and isolates the daemon from misbehaving
// evaluations: panics are recovered into errors, a wedged evaluation is
// abandoned at the deadline so it cannot hold its slot forever, and every
// failure is definitive and charged against the job's failure budget —
// within budget the trial scores worst-case and the run continues; past
// it the error surfaces and only that job fails. An evaluation is a
// deterministic function of its configuration, budget and RNG stream, so
// it is attempted once: a second attempt would fail the same way at twice
// the cost. It carries the run segment's context so a cancelled job stops
// waiting for slots immediately.
type pooledEvaluator struct {
	inner hpo.Evaluator
	m     *Manager
	job   *Job
	ctx   context.Context
}

func (e *pooledEvaluator) FullBudget() int { return e.inner.FullBudget() }

func (e *pooledEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	m, job := e.m, e.job
	tenant := job.tenant()
	if err := m.sched.AcquireEval(e.ctx, tenant); err != nil {
		return nil, err
	}
	start := time.Now()
	scores, err := e.evalOnce(cfg, budget, r)
	m.sched.ReleaseEval(tenant)
	if err == nil {
		m.observeEvalLatency(time.Since(start))
		m.evals.Add(1)
		return scores, nil
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return nil, err
	}
	m.trialFailures.Add(1)
	var stack string
	var pe *panicError
	if errors.As(err, &pe) {
		stack = string(pe.stack)
	}
	failures, absorbed := job.recordEvalFailure(stack, m.cfg.FailureBudget)
	reason := "absorbed"
	if !absorbed {
		reason = "exhausted"
	}
	m.publish(job.ID, events.Event{Type: events.TypeFailure, Failures: failures, Reason: reason})
	if absorbed {
		// Absorbed: this trial alone fails, scoring worst-case so the
		// optimizer ranks the configuration last and moves on.
		return []float64{0}, nil
	}
	return nil, fmt.Errorf("serve: evaluation failed: %w", err)
}

// evalOnce runs the evaluation. Without a deadline it calls straight
// through; with one it runs it in a watchdogged goroutine and
// abandons it — slot released by the caller, result discarded via the
// buffered channel — once the deadline or the job's context fires. The
// abandoned goroutine only touches concurrency-safe state (the
// evaluation cache, and an RNG it reads via non-advancing Splits), so it
// can finish (or sleep) harmlessly in the background.
func (e *pooledEvaluator) evalOnce(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	timeout := e.m.cfg.EvalTimeout
	if timeout <= 0 {
		return e.evalDirect(cfg, budget, r)
	}
	type outcome struct {
		scores []float64
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		scores, err := e.evalDirect(cfg, budget, r)
		ch <- outcome{scores, err}
	}()
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case out := <-ch:
		return out.scores, out.err
	case <-t.C:
		m, job := e.m, e.job
		m.deadlineExceeded.Add(1)
		m.publish(job.ID, events.Event{Type: events.TypeDeadline, Budget: budget, Reason: string(ReasonDeadline)})
		return nil, fmt.Errorf("serve: evaluation exceeded deadline (%s)", timeout)
	case <-e.ctx.Done():
		return nil, e.ctx.Err()
	}
}

// evalDirect runs the evaluation with recover armor, turning a panicking
// evaluation into an error instead of killing the daemon.
func (e *pooledEvaluator) evalDirect(cfg search.Config, budget int, r *rng.RNG) (scores []float64, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &panicError{value: v, stack: debug.Stack()}
		}
	}()
	return e.inner.Evaluate(cfg, budget, r)
}
