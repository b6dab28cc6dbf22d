package serve

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
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
