package hpo

import (
	"context"
	"math"
	"time"

	"enhancedbhpo/internal/bayes"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// TPEOptions configure the Optuna-style sequential TPE optimizer the paper
// compares against in §IV-B (Optuna's default sampler is TPE): every trial
// runs at full budget, and the next configuration is proposed from the
// density-ratio model over past trials.
type TPEOptions struct {
	// N is the number of trials. 0 selects 10.
	N int
	// Sampler tunes the TPE model; zero value selects defaults.
	Sampler bayes.Options
	// Seed drives sampling and training.
	Seed uint64
}

// TPE runs sequential full-budget TPE optimization.
//
// Cancellation: when ctx is cancelled or times out the run stops before
// starting another evaluation and returns ctx's error.
func TPE(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts TPEOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	if opts.N <= 0 {
		opts.N = 10
	}
	root := rng.New(opts.Seed ^ 0x79e1)
	start := time.Now()
	res := &Result{Method: "tpe"}
	budget := ev.FullBudget()
	sampler := bayes.NewSampler(space, opts.Sampler)
	seen := map[string]bool{}
	bestScore := math.Inf(-1)
	var best search.Config
	for step := 0; step < opts.N; step++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var cfg search.Config
		// Prefer unseen proposals; on a saturated tiny space re-evaluate.
		for attempt := 0; ; attempt++ {
			cfg = sampler.Sample(root.Split(uint64(step)*131 + uint64(attempt)))
			if !seen[cfg.ID()] || attempt >= 16 || len(seen) >= space.Size() {
				break
			}
		}
		tr, err := evalTrial(ev, comps, cfg, budget, step, root.Split(trialTag(step, 1)))
		if err != nil {
			return nil, err
		}
		res.Trials = append(res.Trials, tr)
		seen[cfg.ID()] = true
		sampler.Add(bayes.Observation{Config: cfg, Budget: budget, Score: tr.Score})
		if tr.Score > bestScore {
			bestScore, best = tr.Score, cfg
		}
	}
	res.Best = best
	res.BestScore = bestScore
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}

func init() {
	RegisterFunc(MethodInfo{
		Name:         "tpe",
		Aliases:      []string{"optuna"},
		Description:  "sequential full-budget TPE (Optuna's default sampler, §IV-B baseline)",
		HonorsTrials: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
		o := opts.TPE
		o.Seed = opts.Seed
		if o.N == 0 {
			o.N = opts.Trials
		}
		return TPE(ctx, space, ev, comps, o)
	})
}
