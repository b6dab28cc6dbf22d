package hpo

import (
	"context"
	"fmt"
	"sync"
	"time"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// SHAOptions configure Successive Halving.
type SHAOptions struct {
	// Eta is the halving factor: each round keeps 1/Eta of the candidates.
	// 0 selects 2, the classic halving of the paper's Figure 1.
	Eta int
	// MinBudget floors the per-configuration budget of the first round
	// (useful when the configuration count is so large that B/m cannot
	// support k folds). 0 selects 2·K of the components.
	MinBudget int
	// Workers evaluates each round's configurations concurrently. The
	// result is identical for any worker count (per-trial RNG streams are
	// derived from round and index, not from scheduling). 0 selects 1.
	Workers int
	// Seed drives subset sampling and training.
	Seed uint64
}

func (o SHAOptions) withDefaults(k int) SHAOptions {
	if o.Eta < 2 {
		o.Eta = 2
	}
	if o.MinBudget <= 0 {
		o.MinBudget = 2 * k
	}
	return o
}

// SuccessiveHalving runs the paper's Algorithm 1 skeleton over the given
// configurations: in each iteration every surviving configuration receives
// budget b_t = B/|T_t| and is evaluated by cross-validation; the top 1/Eta
// by score advance, until one configuration remains.
//
// With vanilla components this is plain SHA; with enhanced components
// (group folds + UCB-β scorer) it is the paper's "SHA+".
//
// Cancellation: when ctx is cancelled or times out the run stops before
// starting another evaluation and returns ctx's error. Evaluations already
// in flight are allowed to finish, so the run stops within one evaluation
// of the cancel.
func SuccessiveHalving(ctx context.Context, configs []search.Config, ev Evaluator, comps Components, opts SHAOptions) (*Result, error) {
	comps = comps.withDefaults()
	if len(configs) == 0 {
		return nil, fmt.Errorf("hpo: SHA needs at least one configuration")
	}
	if sp := configs[0].Space(); sp != nil {
		if err := validateRun(sp, comps); err != nil {
			return nil, err
		}
	}
	opts = opts.withDefaults(comps.K)
	root := rng.New(opts.Seed ^ 0x5a5a1)
	start := time.Now()
	res := &Result{Method: "sha"}

	current := append([]search.Config(nil), configs...)
	budget := ev.FullBudget()
	round := 0
	var lastScores []ranked
	for len(current) > 1 {
		bt := budget / len(current)
		if bt < opts.MinBudget {
			bt = opts.MinBudget
		}
		if bt > budget {
			bt = budget
		}
		trials, err := evalRound(ctx, ev, comps, current, bt, round, opts.Workers, root)
		if err != nil {
			return nil, err
		}
		scores := make([]ranked, 0, len(current))
		for i, tr := range trials {
			res.Trials = append(res.Trials, tr)
			scores = append(scores, ranked{cfg: current[i], score: tr.Score, order: i})
		}
		keep := len(current) / opts.Eta
		if keep < 1 {
			keep = 1
		}
		current = topConfigs(scores, keep)
		lastScores = scores
		round++
	}
	res.Best = current[0]
	res.BestScore = bestScoreOf(lastScores, res.Best)
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}

func init() {
	RegisterFunc(MethodInfo{
		Name:             "sha",
		Description:      "successive halving (Algorithm 1): budget doubles as the candidate set halves",
		BudgetAware:      true,
		HonorsWorkers:    true,
		HonorsMaxConfigs: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
		o := opts.SHA
		o.Seed = opts.Seed
		if o.Workers == 0 {
			o.Workers = opts.Workers
		}
		configs := space.Enumerate()
		if opts.MaxConfigs > 0 && opts.MaxConfigs < len(configs) {
			// The subsampling stream is rng.New(seed^0xc0de).Split(2) —
			// bit-identical to core.Run's historical root.Split(2) (Split
			// never advances the parent), so CLI and served runs agree on
			// the start set for a given seed.
			configs = space.SampleN(rng.New(opts.Seed^0xc0de).Split(2), opts.MaxConfigs)
		}
		return SuccessiveHalving(ctx, configs, ev, comps, o)
	})
}

// evalRound evaluates one halving round, optionally with a worker pool.
// Results are ordered by configuration index, so the outcome is identical
// for any worker count. A cancelled ctx or a failed evaluation stops the
// round before the next evaluation starts; the error returned is the first
// one recorded.
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
					trials[i] = tr
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
	for _, r := range rs {
		if r.cfg.ID() == best.ID() {
			return r.score
		}
	}
	return 0
}

// trialTag derives a deterministic RNG stream tag from round and index.
func trialTag(round, i int) uint64 {
	return uint64(round)*1_000_003 + uint64(i) + 1
}
