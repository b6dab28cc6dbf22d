package hpo

import (
	"context"

	"enhancedbhpo/internal/bayes"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// tpe runs the Optuna-style sequential TPE optimizer the paper compares
// against in §IV-B (Optuna's default sampler is TPE): every trial runs at
// full budget, and the next configuration is proposed from the
// density-ratio model over past trials.
func tpe(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	root := rng.New(o.Seed ^ 0x79e1)
	res := &Result{}
	budget := ev.FullBudget()
	sampler := bayes.NewSampler(space, bayes.Options{})
	seen := map[string]bool{}
	var best incumbent
	for step := 0; step < o.trials(); step++ {
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
		best.offer(cfg, tr.Score)
	}
	res.Best, res.BestScore = best.cfg, best.score
	return res, nil
}
