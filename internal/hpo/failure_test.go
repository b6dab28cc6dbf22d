package hpo

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// failingEvaluator fails every evaluation after the first failAfter calls —
// failure injection to check that every optimizer surfaces evaluation
// errors instead of swallowing them or deadlocking.
type failingEvaluator struct {
	mu        sync.Mutex
	calls     int
	failAfter int
	inner     *fakeEvaluator
}

var errInjected = errors.New("injected evaluation failure")

func (f *failingEvaluator) FullBudget() int { return f.inner.full }

func (f *failingEvaluator) Evaluate(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.mu.Unlock()
	if n > f.failAfter {
		return nil, errInjected
	}
	return f.inner.Evaluate(c, budget, r)
}

func newFailing(failAfter int) (*search.Space, *failingEvaluator) {
	space, quality := gradedSpace()
	inner := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
	return space, &failingEvaluator{failAfter: failAfter, inner: inner}
}

func TestOptimizersSurfaceEvaluationErrors(t *testing.T) {
	for _, info := range Methods() {
		workerCounts := []int{0}
		if info.HonorsWorkers {
			workerCounts = append(workerCounts, 4)
		}
		for _, workers := range workerCounts {
			for _, failAfter := range []int{0, 3} {
				space, ev := newFailing(failAfter)
				_, err := method(info.Name).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 1, Workers: workers, Trials: 8})
				if err == nil {
					t.Errorf("%s (workers=%d, failAfter=%d): error swallowed", info.Name, workers, failAfter)
					continue
				}
				if !errors.Is(err, errInjected) && !strings.Contains(err.Error(), "injected") {
					t.Errorf("%s: unexpected error %v", info.Name, err)
				}
			}
		}
	}
}

// TestASHAErrorStopsWorkers ensures an injected failure terminates the
// worker pool rather than hanging the run.
func TestASHAErrorStopsWorkers(t *testing.T) {
	space, ev := newFailing(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = method("asha").Run(context.Background(), space, ev, vanComps(), RunOptions{MaxConfigs: 16, Workers: 4, Seed: 9})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second): // normal completion is milliseconds
		t.Fatal("ASHA hung after evaluation failure")
	}
}

// firstFailsEvaluator fails one configuration and takes a millisecond over
// every other, counting calls.
type firstFailsEvaluator struct {
	failID string
	calls  atomic.Int64
}

func (f *firstFailsEvaluator) FullBudget() int { return 6400 }

func (f *firstFailsEvaluator) Evaluate(c search.Config, _ int, _ *rng.RNG) ([]float64, error) {
	f.calls.Add(1)
	if c.ID() == f.failID {
		return nil, errInjected
	}
	time.Sleep(time.Millisecond)
	return []float64{0.5}, nil
}

// TestSHARoundStopsAtFirstFailure: once an evaluation of a parallel round
// has failed the round is lost, so its workers take no more of it — the
// evaluations already in flight finish, the other sixty-odd never start —
// and the error returned is the one that failed first.
func TestSHARoundStopsAtFirstFailure(t *testing.T) {
	vals := []any{0, 1, 2, 3, 4, 5, 6, 7}
	space := &search.Space{Dims: []search.Dimension{{Name: "a", Values: vals}, {Name: "b", Values: vals}}}
	configs := space.Enumerate()
	ev := &firstFailsEvaluator{failID: configs[0].ID()}
	_, err := method("sha").Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 1, Workers: 2})
	if !errors.Is(err, errInjected) {
		t.Fatalf("error %v, want the injected failure", err)
	}
	if calls := ev.calls.Load(); calls > 8 {
		t.Errorf("%d of %d configurations evaluated after the first one failed, want a handful", calls, len(configs))
	}
}
