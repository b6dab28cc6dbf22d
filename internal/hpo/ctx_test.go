package hpo

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// TestASHAWorkerCountDeterminism is the regression test for the promotion
// replay: ASHA with 1 worker and with 8 workers on the same seed must run
// the same set of evaluations and select the same best configuration.
func TestASHAWorkerCountDeterminism(t *testing.T) {
	space, quality := gradedSpace()
	for _, seed := range []uint64{1, 7, 42} {
		ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
		base := ASHAOptions{Eta: 2, MinBudget: 100, MaxConfigs: 16, Seed: seed}
		serialOpts := base
		serialOpts.Workers = 1
		serial, err := ASHA(context.Background(), space, ev, vanComps(), serialOpts)
		if err != nil {
			t.Fatal(err)
		}
		parallelOpts := base
		parallelOpts.Workers = 8
		parallel, err := ASHA(context.Background(), space, ev, vanComps(), parallelOpts)
		if err != nil {
			t.Fatal(err)
		}
		if parallel.Best.ID() != serial.Best.ID() {
			t.Fatalf("seed %d: workers=8 picked %s, workers=1 picked %s",
				seed, parallel.Best.ID(), serial.Best.ID())
		}
		if parallel.BestScore != serial.BestScore {
			t.Fatalf("seed %d: best score %v vs %v", seed, parallel.BestScore, serial.BestScore)
		}
		if got, want := trialKeys(parallel), trialKeys(serial); !equalStrings(got, want) {
			t.Fatalf("seed %d: evaluation sets diverged:\n workers=8: %v\n workers=1: %v",
				seed, got, want)
		}
	}
}

// TestASHATrialOrderAnyWorkers pins the serial-order emission replay:
// Result.Trials and the Observe stream arrive in the identical order for
// any worker count — the order a single-worker run produces — so anytime
// curves built from either are scheduling-independent, not just the
// evaluation set.
func TestASHATrialOrderAnyWorkers(t *testing.T) {
	space, quality := gradedSpace()
	base := ASHAOptions{Eta: 2, MinBudget: 100, MaxConfigs: 16, Seed: 7}
	run := func(workers int) (*Result, []string) {
		ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
		var mu sync.Mutex
		var seen []string
		comps := vanComps().WithObserver(func(tr Trial) {
			mu.Lock()
			seen = append(seen, fmt.Sprintf("%s@%d=%x", tr.Config.ID(), tr.Round, tr.Score))
			mu.Unlock()
		})
		opts := base
		opts.Workers = workers
		res, err := ASHA(context.Background(), space, ev, comps, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, seen
	}
	serial, serialSeen := run(1)
	if len(serialSeen) != len(serial.Trials) {
		t.Fatalf("observer saw %d trials, result has %d", len(serialSeen), len(serial.Trials))
	}
	for _, workers := range []int{2, 8} {
		res, seen := run(workers)
		if len(res.Trials) != len(serial.Trials) {
			t.Fatalf("workers=%d: %d trials, serial %d", workers, len(res.Trials), len(serial.Trials))
		}
		for i := range serial.Trials {
			a, b := serial.Trials[i], res.Trials[i]
			if a.Config.ID() != b.Config.ID() || a.Round != b.Round || a.Score != b.Score || a.Budget != b.Budget {
				t.Fatalf("workers=%d: trial %d out of serial order: %s@%d vs %s@%d",
					workers, i, b.Config.ID(), b.Round, a.Config.ID(), a.Round)
			}
		}
		if !equalStrings(seen, serialSeen) {
			t.Fatalf("workers=%d: observer stream diverged from serial order:\n got  %v\n want %v",
				workers, seen, serialSeen)
		}
	}
}

// trialKeys returns the sorted (config, rung, score) keys of a run — the
// scheduling-independent fingerprint of what was evaluated.
func trialKeys(res *Result) []string {
	keys := make([]string, 0, len(res.Trials))
	for _, tr := range res.Trials {
		keys = append(keys, fmt.Sprintf("%s@%d=%x", tr.Config.ID(), tr.Round, tr.Score))
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
		method, _ := LookupMethod(info.Name)
		t.Run(info.Name, func(t *testing.T) {
			opts := RunOptions{Seed: 7}
			if info.HonorsWorkers {
				// Determinism must also hold across scheduling, so the
				// repeat run uses a different worker count.
				opts.Workers = 1
			}
			runOnce := func(o RunOptions) *Result {
				ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
				res, err := method.Run(context.Background(), space, ev, vanComps(), o)
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
