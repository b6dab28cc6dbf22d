package hpo

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// slowFirst holds every evaluation of one configuration for a while, so
// concurrent workers finish the others before it.
type slowFirst struct {
	*fakeEvaluator
	slow string
}

func (s slowFirst) Evaluate(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if c.ID() == s.slow {
		time.Sleep(20 * time.Millisecond)
	}
	return s.fakeEvaluator.Evaluate(c, budget, r)
}

// TestTrialOrderAnyWorkers: every method with HonorsWorkers runs the same
// at any worker count — the same Trials in the same order, the same
// Observe stream, the same Best and BestScore — even when every
// evaluation of the first configuration finishes last. SHA's parallel
// rounds and ASHA hold a finished trial back until every trial before it
// in single-worker order is in, so an anytime curve, and the count of it a
// resumed run skips, does not depend on scheduling.
func TestTrialOrderAnyWorkers(t *testing.T) {
	space, quality := gradedSpace()
	slow := space.Enumerate()[0].ID()
	for _, info := range Methods() {
		if !info.HonorsWorkers {
			continue
		}
		for _, seed := range []uint64{1, 7, 42} {
			t.Run(fmt.Sprintf("%s/seed=%d", info.Name, seed), func(t *testing.T) {
				checkWorkerCounts(t, space, method(info.Name), RunOptions{Seed: seed}, []int{2, 4, 8}, func() Evaluator {
					return slowFirst{&fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}, slow}
				})
			})
		}
	}
}

// TestASHAWorkerCountDeterminism is the regression test for the promotion
// replay on a halving ladder (η = 2, r_min = 100, 16 configurations):
// ASHA with 1 worker and with 8 workers on the same seed runs the same
// evaluations and selects the same best configuration.
func TestASHAWorkerCountDeterminism(t *testing.T) {
	space, quality := gradedSpace()
	asha := ladder("asha", schedule{eta: 2, perFold: 20})
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			checkWorkerCounts(t, space, asha, RunOptions{MaxConfigs: 16, Seed: seed}, []int{8}, func() Evaluator {
				return &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
			})
		})
	}
}

// TestASHATrialOrderAnyWorkers pins the serial-order emission replay on
// the same halving ladder: Result.Trials and the Observe stream arrive in
// the order a single-worker run produces.
func TestASHATrialOrderAnyWorkers(t *testing.T) {
	space, quality := gradedSpace()
	asha := ladder("asha", schedule{eta: 2, perFold: 20})
	checkWorkerCounts(t, space, asha, RunOptions{MaxConfigs: 16, Seed: 7}, []int{2, 8}, func() Evaluator {
		return &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
	})
}

// TestSHATrialOrderAnyWorkers: SHA's Observe stream arrives in index order
// for any worker count — the first configuration first even when it is
// the last to finish.
func TestSHATrialOrderAnyWorkers(t *testing.T) {
	space, quality := gradedSpace()
	slow := space.Enumerate()[0].ID()
	checkWorkerCounts(t, space, method("sha"), RunOptions{Seed: 1}, []int{2, 4}, func() Evaluator {
		return slowFirst{&fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}, slow}
	})
}

// TestSHAParallelMatchesSerial verifies the determinism contract of the
// Workers knob: per-trial RNG streams are derived from (round, index), so
// any worker count produces identical trials and the same winner.
func TestSHAParallelMatchesSerial(t *testing.T) {
	space, quality := gradedSpace()
	checkWorkerCounts(t, space, method("sha"), RunOptions{Seed: 1}, []int{2, 4, 8}, func() Evaluator {
		return &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
	})
}

// TestSHAParallelRace exercises SHA's worker pool under the race detector
// at a worker count that does not divide the rung sizes.
func TestSHAParallelRace(t *testing.T) {
	space, quality := gradedSpace()
	checkWorkerCounts(t, space, method("sha"), RunOptions{Seed: 2}, []int{6}, func() Evaluator {
		return &fakeEvaluator{space: space, full: 800, quality: quality, noise: 0.01}
	})
}

// checkWorkerCounts runs m on space at workers=1 and at each count in
// workers, each run on a fresh evaluator from newEv, and requires the same
// Trials in the same order, the same Observe stream, and the same Best and
// BestScore as the single-worker run.
func checkWorkerCounts(t *testing.T, space *search.Space, m Method, opts RunOptions, workers []int, newEv func() Evaluator) {
	t.Helper()
	run := func(w int) (res *Result, trials, observed []string) {
		var mu sync.Mutex
		comps := vanComps().WithObserver(func(tr Trial) {
			mu.Lock()
			observed = append(observed, trialKey(tr))
			mu.Unlock()
		})
		o := opts
		o.Workers = w
		res, err := m.Run(context.Background(), space, newEv(), comps, o)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for _, tr := range res.Trials {
			trials = append(trials, trialKey(tr))
		}
		return res, trials, observed
	}
	serial, serialTrials, serialObserved := run(1)
	if !equalStrings(serialObserved, serialTrials) {
		t.Fatalf("observer saw %v, result has %v", serialObserved, serialTrials)
	}
	for _, w := range workers {
		res, trials, observed := run(w)
		if !equalStrings(trials, serialTrials) {
			t.Fatalf("workers=%d: trials out of serial order:\n got  %v\n want %v", w, trials, serialTrials)
		}
		if !equalStrings(observed, serialObserved) {
			t.Fatalf("workers=%d: observer stream diverged from serial order:\n got  %v\n want %v", w, observed, serialObserved)
		}
		if res.Best.ID() != serial.Best.ID() || res.BestScore != serial.BestScore {
			t.Fatalf("workers=%d picked %s at %v, workers=1 %s at %v", w, res.Best.ID(), res.BestScore, serial.Best.ID(), serial.BestScore)
		}
	}
}

// trialKey identifies a trial by configuration, round, budget and score
// bits.
func trialKey(tr Trial) string {
	return fmt.Sprintf("%s@%d/%d=%x", tr.Config.ID(), tr.Round, tr.Budget, tr.Score)
}

// trialKeys returns the sorted trial keys of a run — the
// scheduling-independent fingerprint of what was evaluated.
func trialKeys(res *Result) []string {
	keys := make([]string, 0, len(res.Trials))
	for _, tr := range res.Trials {
		keys = append(keys, trialKey(tr))
	}
	sort.Strings(keys)
	return keys
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// countingEvaluator wraps fakeEvaluator and counts Evaluate calls.
type countingEvaluator struct {
	inner Evaluator
	calls atomic.Int64
}

func (c *countingEvaluator) FullBudget() int { return c.inner.FullBudget() }

func (c *countingEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	c.calls.Add(1)
	return c.inner.Evaluate(cfg, budget, r)
}

// TestCtxCancellationStopsOptimizers cancels a context mid-run and checks
// that every registered method returns context.Canceled and stops
// evaluating promptly (within one in-flight evaluation per worker). The
// table is the registry itself, so a newly registered method is covered
// automatically.
func TestCtxCancellationStopsOptimizers(t *testing.T) {
	space, quality := gradedSpace()
	for i, info := range Methods() {
		seed := uint64(i + 1)
		workers := 1
		opts := RunOptions{Seed: seed}
		if info.HonorsWorkers {
			workers = 4
			opts.Workers = workers
		}
		method, ok := LookupMethod(info.Name)
		if !ok {
			t.Fatalf("Methods() lists %q but LookupMethod misses it", info.Name)
		}
		t.Run(info.Name, func(t *testing.T) {
			inner := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
			ev := &countingEvaluator{inner: inner}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const stopAfter = 3
			hook := &cancelAfter{n: stopAfter, cancel: cancel, ev: ev}
			_, err := method.Run(ctx, space, hook, vanComps(), opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("got error %v, want context.Canceled", err)
			}
			// The cancel fires during evaluation stopAfter; afterwards at
			// most one already-dispatched evaluation per worker may finish.
			if got := ev.calls.Load(); got > int64(stopAfter+workers) {
				t.Fatalf("ran %d evaluations after cancelling at %d with %d workers", got, stopAfter, workers)
			}
		})
	}
}

// TestSeedDeterminism runs every registered method twice with the same
// seed and requires the identical best configuration, best score and
// evaluation set — the registry contract that makes CLI and served runs
// reproducible.
func TestSeedDeterminism(t *testing.T) {
	space, quality := gradedSpace()
	for _, info := range Methods() {
		t.Run(info.Name, func(t *testing.T) {
			opts := RunOptions{Seed: 7}
			if info.HonorsWorkers {
				// Determinism must also hold across scheduling, so the
				// repeat run uses a different worker count.
				opts.Workers = 1
			}
			runOnce := func(o RunOptions) *Result {
				ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
				res, err := method(info.Name).Run(context.Background(), space, ev, vanComps(), o)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first := runOnce(opts)
			repeatOpts := opts
			if info.HonorsWorkers {
				repeatOpts.Workers = 4
			}
			repeat := runOnce(repeatOpts)
			if first.Best.ID() != repeat.Best.ID() {
				t.Fatalf("same seed picked %s then %s", first.Best.ID(), repeat.Best.ID())
			}
			if first.BestScore != repeat.BestScore {
				t.Fatalf("same seed scored %v then %v", first.BestScore, repeat.BestScore)
			}
			if got, want := trialKeys(repeat), trialKeys(first); !equalStrings(got, want) {
				t.Fatalf("same seed evaluated different sets:\n first:  %v\n repeat: %v", want, got)
			}
		})
	}
}

// cancelAfter cancels the context when the n-th evaluation starts.
type cancelAfter struct {
	n      int64
	cancel context.CancelFunc
	ev     *countingEvaluator
}

func (c *cancelAfter) FullBudget() int { return c.ev.FullBudget() }

func (c *cancelAfter) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	if c.ev.calls.Load()+1 >= c.n {
		c.cancel()
	}
	return c.ev.Evaluate(cfg, budget, r)
}

// TestPreCancelledCtx verifies that an already-cancelled context aborts
// every registered method before any evaluation runs.
func TestPreCancelledCtx(t *testing.T) {
	space, quality := gradedSpace()
	inner := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
	ev := &countingEvaluator{inner: inner}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, info := range Methods() {
		method, _ := LookupMethod(info.Name)
		if _, err := method.Run(ctx, space, ev, vanComps(), RunOptions{Seed: 1}); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: got %v, want context.Canceled", info.Name, err)
		}
	}
	if got := ev.calls.Load(); got != 0 {
		t.Fatalf("pre-cancelled context still ran %d evaluations", got)
	}
}
