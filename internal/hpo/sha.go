package hpo

import (
	"context"
	"sync"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// sha runs the paper's Algorithm 1 skeleton: in each iteration every
// surviving configuration receives budget b_t = B/|T_t| — at least r_min —
// and is evaluated by cross-validation; the top 1/η by score advance, until
// one configuration remains. The start set is the whole space, or
// MaxConfigs configurations drawn by the seed alone, so a CLI run and a
// served job with one seed start from the same configurations.
//
// With vanilla components this is plain SHA; with enhanced components
// (group folds + UCB-β scorer) it is the paper's "SHA+". Workers evaluate
// each round concurrently; the result and the Observe stream are the same
// for any worker count (per-trial RNG streams are derived from round and
// index, not from scheduling, and trials are observed in index order).
func (sc schedule) sha(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	current := space.Enumerate()
	if o.MaxConfigs > 0 && o.MaxConfigs < len(current) {
		current = space.SampleN(rng.New(o.Seed^0xc0de).Split(2), o.MaxConfigs)
	}
	root := rng.New(o.Seed ^ 0x5a5a1)
	budget, rMin := ev.FullBudget(), sc.rMin(comps.K)
	res := &Result{}
	var lastScores []ranked
	for round := 0; len(current) > 1; round++ {
		bt := min(max(budget/len(current), rMin), budget)
		trials, err := evalRound(ctx, ev, comps, current, bt, round, o.Workers, root)
		if err != nil {
			return nil, err
		}
		res.Trials = append(res.Trials, trials...)
		scores := make([]ranked, len(current))
		for i, tr := range trials {
			scores[i] = ranked{cfg: current[i], score: tr.Score, order: i}
		}
		current = topConfigs(scores, max(len(current)/sc.eta, 1))
		lastScores = scores
	}
	res.Best = current[0]
	res.BestScore = bestScoreOf(lastScores, res.Best)
	return res, nil
}

// evalRound evaluates one round — SHA's halving round, a Hyperband rung,
// the baselines' one full-budget pass — optionally with a worker pool.
// Results are ordered by configuration index, and so is the Observe
// stream: a worker's trial is held until every trial before it is in, so
// the stream — and any count of it a resume skips — is the one a single
// worker produces. A cancelled ctx or a failed evaluation stops the round
// before the next evaluation starts, and stops the stream; the error
// returned is the first one recorded.
func evalRound(ctx context.Context, ev Evaluator, comps Components, configs []search.Config, budget, round, workers int, root *rng.RNG) ([]Trial, error) {
	trials := make([]Trial, len(configs))
	if workers <= 1 || len(configs) == 1 {
		for i, cfg := range configs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tr, err := evalTrial(ev, comps, cfg, budget, round, root.Split(trialTag(round, i)))
			if err != nil {
				return nil, err
			}
			trials[i] = tr
		}
		return trials, nil
	}
	if workers > len(configs) {
		workers = len(configs)
	}
	observe := comps.Observe
	comps.Observe = nil
	done, emitted := make([]bool, len(configs)), 0
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				// Once the round is lost — an evaluation failed, ctx is done —
				// the feed is drained and nothing more trained for it.
				mu.Lock()
				err := firstErr
				mu.Unlock()
				if err == nil {
					err = ctx.Err()
				}
				var tr Trial
				if err == nil {
					tr, err = evalTrial(ev, comps, configs[i], budget, round, root.Split(trialTag(round, i)))
				}
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
				} else {
					trials[i], done[i] = tr, true
				}
				for ; firstErr == nil && emitted < len(done) && done[emitted]; emitted++ {
					if observe != nil {
						observe(trials[emitted])
					}
				}
				mu.Unlock()
			}
		}()
	}
	for i := range configs {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return trials, nil
}

// bestScoreOf finds best's score in the final round ranking (0 when the run
// had a single configuration and no evaluations).
func bestScoreOf(rs []ranked, best search.Config) float64 {
	id := best.ID()
	for _, r := range rs {
		if r.cfg.ID() == id {
			return r.score
		}
	}
	return 0
}

// trialTag derives a deterministic RNG stream tag from round and index.
func trialTag(round, i int) uint64 {
	return uint64(round)*1_000_003 + uint64(i) + 1
}
