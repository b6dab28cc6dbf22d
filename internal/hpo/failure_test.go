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
	cases := []struct {
		name string
		run  func(space *search.Space, ev Evaluator) error
	}{
		{"sha", func(space *search.Space, ev Evaluator) error {
			_, err := SuccessiveHalving(context.Background(), space.Enumerate(), ev, vanComps(), SHAOptions{Seed: 1})
			return err
		}},
		{"sha-parallel", func(space *search.Space, ev Evaluator) error {
			_, err := SuccessiveHalving(context.Background(), space.Enumerate(), ev, vanComps(), SHAOptions{Seed: 1, Workers: 4})
			return err
		}},
		{"random", func(space *search.Space, ev Evaluator) error {
			_, err := RandomSearch(context.Background(), space, ev, vanComps(), RandomSearchOptions{N: 8, Seed: 1})
			return err
		}},
		{"hyperband", func(space *search.Space, ev Evaluator) error {
			_, err := Hyperband(context.Background(), space, ev, vanComps(), HyperbandOptions{MinBudget: 50, Seed: 1})
			return err
		}},
		{"bohb", func(space *search.Space, ev Evaluator) error {
			_, err := BOHB(context.Background(), space, ev, vanComps(), BOHBOptions{Hyperband: HyperbandOptions{MinBudget: 50, Seed: 1}})
			return err
		}},
		{"asha", func(space *search.Space, ev Evaluator) error {
			_, err := ASHA(context.Background(), space, ev, vanComps(), ASHAOptions{MinBudget: 100, MaxConfigs: 8, Workers: 3, Seed: 1})
			return err
		}},
		{"pasha", func(space *search.Space, ev Evaluator) error {
			_, err := PASHA(context.Background(), space, ev, vanComps(), PASHAOptions{MinBudget: 100, MaxConfigs: 8, Seed: 1})
			return err
		}},
		{"dehb", func(space *search.Space, ev Evaluator) error {
			_, err := DEHB(context.Background(), space, ev, vanComps(), DEHBOptions{Hyperband: HyperbandOptions{MinBudget: 50, Seed: 1}})
			return err
		}},
		{"smac", func(space *search.Space, ev Evaluator) error {
			_, err := SMAC(context.Background(), space, ev, vanComps(), SMACOptions{N: 8, Seed: 1})
			return err
		}},
		{"tpe", func(space *search.Space, ev Evaluator) error {
			_, err := TPE(context.Background(), space, ev, vanComps(), TPEOptions{N: 8, Seed: 1})
			return err
		}},
		{"grid", func(space *search.Space, ev Evaluator) error {
			_, err := GridSearch(context.Background(), space, ev, vanComps(), GridSearchOptions{Seed: 1})
			return err
		}},
	}
	for _, tc := range cases {
		for _, failAfter := range []int{0, 3} {
			space, ev := newFailing(failAfter)
			err := tc.run(space, ev)
			if err == nil {
				t.Errorf("%s (failAfter=%d): error swallowed", tc.name, failAfter)
				continue
			}
			if !errors.Is(err, errInjected) && !strings.Contains(err.Error(), "injected") {
				t.Errorf("%s: unexpected error %v", tc.name, err)
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
		_, _ = ASHA(context.Background(), space, ev, vanComps(), ASHAOptions{MinBudget: 100, MaxConfigs: 16, Workers: 4, Seed: 9})
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
	_, err := SuccessiveHalving(context.Background(), configs, ev, vanComps(), SHAOptions{Seed: 1, Workers: 2})
	if !errors.Is(err, errInjected) {
		t.Fatalf("error %v, want the injected failure", err)
	}
	if calls := ev.calls.Load(); calls > 8 {
		t.Errorf("%d of %d configurations evaluated after the first one failed, want a handful", calls, len(configs))
	}
}
