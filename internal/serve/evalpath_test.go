package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// overlapEvaluator records how many evaluations are inside it at once
// and makes the first one wait until a second of the same budget has
// entered, so "two evaluations overlap" is an event the test waits on,
// not a race it hopes to win.
type overlapEvaluator struct {
	inner hpo.Evaluator
	wait  time.Duration

	mu       sync.Mutex
	inflight int
	peak     int
	byBudget map[int]int
	met      chan struct{} // closed when two same-budget evaluations are in flight
	metOnce  sync.Once
	timedOut bool
}

func (o *overlapEvaluator) FullBudget() int { return o.inner.FullBudget() }

func (o *overlapEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	o.mu.Lock()
	o.inflight++
	o.peak = max(o.peak, o.inflight)
	o.byBudget[budget]++
	first := o.inflight == 1
	if o.byBudget[budget] == 2 {
		o.metOnce.Do(func() { close(o.met) })
	}
	o.mu.Unlock()
	if first {
		select {
		case <-o.met:
		case <-time.After(o.wait):
			o.mu.Lock()
			o.timedOut = true
			o.mu.Unlock()
		}
	}
	scores, err := o.inner.Evaluate(cfg, budget, r)
	o.mu.Lock()
	o.inflight--
	o.byBudget[budget]--
	o.mu.Unlock()
	return scores, err
}

// TestPoolSlotsEvaluateSideBySide: on a 2-slot pool, two same-budget
// cache misses of one SHA job are in flight at the same time — each on
// its own slot and goroutine, nothing parks one behind the other — and
// never more than PoolSize evaluations run at once.
func TestPoolSlotsEvaluateSideBySide(t *testing.T) {
	ov := &overlapEvaluator{wait: 30 * time.Second, byBudget: map[int]int{}, met: make(chan struct{})}
	m := NewManager(Config{
		PoolSize: 2, MaxJobs: 1,
		WrapEvaluator: func(_ string, inner hpo.Evaluator) hpo.Evaluator {
			ov.inner = inner
			return ov
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	job, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID, terminal, "terminal")
	if snap := job.Snapshot(); snap.Status != StatusDone {
		t.Fatalf("job ended %s (%s)", snap.Status, snap.Error)
	}
	ov.mu.Lock()
	defer ov.mu.Unlock()
	if ov.timedOut {
		t.Error("no second same-budget evaluation entered while the first was in flight")
	}
	if ov.peak != 2 {
		t.Errorf("peak concurrent evaluations %d, want 2 (PoolSize)", ov.peak)
	}
	if misses := m.Metrics().CacheMisses; misses < 2 {
		t.Errorf("cache misses %d, want >= 2: the overlapping evaluations must have trained", misses)
	}
}

// soloRun runs spec alone on a fresh manager of the given pool size,
// sampling pool_in_use all the while, and returns the finished job's
// trials and curve as JSON, the most slots seen held and folds_lent.
func soloRun(t *testing.T, poolSize int, spec JobSpec) (trials, curve []byte, peak int, lent int64) {
	t.Helper()
	m := NewManager(Config{PoolSize: poolSize, MaxJobs: 1, DeterministicTiming: true})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	stop, sampled := make(chan struct{}), make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				sampled <- peak
				return
			default:
				peak = max(peak, m.Metrics().PoolInUse)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	job, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID, terminal, "terminal")
	close(stop)
	peak = <-sampled
	snap := job.Snapshot()
	if snap.Status != StatusDone {
		t.Fatalf("PoolSize %d: job ended %s (%s)", poolSize, snap.Status, snap.Error)
	}
	job.mu.Lock()
	trials, err = json.Marshal(job.trials)
	job.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if curve, err = json.Marshal(snap.Curve); err != nil {
		t.Fatal(err)
	}
	return trials, curve, peak, m.Metrics().FoldsLent
}

// probeEvaluator marks, per job, when an evaluation holds its slot.
type probeEvaluator struct {
	inner   hpo.Evaluator
	entered chan struct{} // closed on the first entry
	once    sync.Once
	exited  atomic.Bool // an evaluation has returned
}

func (p *probeEvaluator) FullBudget() int { return p.inner.FullBudget() }

func (p *probeEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	p.once.Do(func() { close(p.entered) })
	scores, err := p.inner.Evaluate(cfg, budget, r)
	p.exited.Store(true)
	return scores, err
}

// TestIdleSlotTrainsFolds: a solo Hyperband job — one trial at a time —
// trains folds on the second slot of a 2-slot pool and ends with the
// trials and the curve, byte for byte, it ends with on a 1-slot pool,
// where nothing can be lent; the slots held, own and lent, never exceed
// the pool. And a lent slot is on loan for a fold: a job arriving while
// another's only evaluation has both slots gets its first one before that
// evaluation is over.
func TestIdleSlotTrainsFolds(t *testing.T) {
	spec := JobSpec{Dataset: "australian", Scale: 0.06, Method: "hyperband", NumHPs: 2, Iters: 2, Seed: 3}
	trials1, curve1, peak1, lent1 := soloRun(t, 1, spec)
	trials2, curve2, peak2, lent2 := soloRun(t, 2, spec)
	if !bytes.Equal(trials1, trials2) {
		t.Errorf("trials differ\nPoolSize 1: %s\nPoolSize 2: %s", trials1, trials2)
	}
	if !bytes.Equal(curve1, curve2) {
		t.Errorf("curves differ\nPoolSize 1: %s\nPoolSize 2: %s", curve1, curve2)
	}
	if lent1 != 0 || lent2 == 0 {
		t.Errorf("folds_lent = %d on one slot and %d on two, want 0 and > 0", lent1, lent2)
	}
	if peak1 > 1 || peak2 > 2 {
		t.Errorf("sampled pool_in_use peaked at %d of 1 and %d of 2", peak1, peak2)
	}

	// One evaluation of five long folds; the newcomer is submitted once
	// that evaluation holds both slots, its own and a borrowed one.
	long := JobSpec{Dataset: "australian", Scale: 1, Method: "random", Trials: 1, Iters: 120, Seed: 1}
	probes := map[string]*probeEvaluator{"job-1": {entered: make(chan struct{})}, "job-2": {entered: make(chan struct{})}}
	m := NewManager(Config{
		PoolSize: 2, MaxJobs: 2,
		WrapEvaluator: func(id string, inner hpo.Evaluator) hpo.Evaluator {
			probes[id].inner = inner
			return probes[id]
		},
	})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	first, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	<-probes[first.ID].entered
	for deadline := time.Now().Add(30 * time.Second); m.Metrics().PoolInUse < 2; time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("the solo evaluation never borrowed the idle slot")
		}
	}
	long.Seed = 2
	second, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	<-probes[second.ID].entered
	if probes[first.ID].exited.Load() {
		t.Error("the second job got its first evaluation slot only after the first job's evaluation was over")
	}
	for _, job := range []*Job{first, second} {
		waitJob(t, m, job.ID, terminal, "terminal")
		if snap := job.Snapshot(); snap.Status != StatusDone {
			t.Errorf("%s ended %s (%s)", job.ID, snap.Status, snap.Error)
		}
	}
	if mt := m.Metrics(); mt.FoldsLent == 0 || mt.PoolInUse != 0 {
		t.Errorf("folds_lent = %d, pool_in_use = %d after both jobs, want > 0 and 0", mt.FoldsLent, mt.PoolInUse)
	}
}

// nanEvaluator scores every fold NaN, as a diverged regression fit does.
type nanEvaluator struct{ inner hpo.Evaluator }

func (n nanEvaluator) FullBudget() int { return n.inner.FullBudget() }

func (n nanEvaluator) Evaluate(search.Config, int, *rng.RNG) ([]float64, error) {
	return []float64{math.NaN(), math.NaN(), math.NaN()}, nil
}

// TestNaNCurveDoesNotKillDaemon: a job whose every score is NaN reaches a
// terminal state — journaled, which renders the curve's sparkline on the
// runner goroutine — and the daemon still answers /healthz.
func TestNaNCurveDoesNotKillDaemon(t *testing.T) {
	m, err := NewManagerFromJournal(Config{
		PoolSize: 2, MaxJobs: 1, DataDir: t.TempDir(),
		WrapEvaluator: func(_ string, inner hpo.Evaluator) hpo.Evaluator { return nanEvaluator{inner} },
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := m.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	job, err := m.Submit(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, m, job.ID, terminal, "terminal")
	if snap := job.Snapshot(); len(snap.Curve) == 0 || snap.Sparkline == "" {
		t.Errorf("terminal snapshot has no curve: %+v", snap)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after a NaN job: status %d", resp.StatusCode)
	}
}
