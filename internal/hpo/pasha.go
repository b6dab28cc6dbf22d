package hpo

import (
	"context"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// pasha runs Progressive ASHA (Bohdal et al., 2023), which the paper lists
// among the Hyperband improvements: instead of fixing the maximum budget up
// front, the rung ladder starts at two rungs and is extended only while the
// top of the ranking disagrees between the two highest rungs (soft-rank
// instability), up to the full budget — saving the large-budget
// evaluations that a settled ranking makes unnecessary.
func (sc schedule) pasha(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	root := rng.New(o.Seed ^ 0x9a57a)
	budgets, configs := sc.rungs(space, comps.K, ev.FullBudget(), o.MaxConfigs, root.Split(1))
	absMaxRung := len(budgets) - 1
	res := &Result{}
	rungs := make([][]ranked, absMaxRung+1)
	// currentMax is the progressive rung cap; starts with a two-rung ladder.
	currentMax := min(1, absMaxRung)

	evalAt := func(cfg search.Config, cfgIdx, rung int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr, err := evalTrial(ev, comps, cfg, budgets[rung], rung, root.Split(uint64(cfgIdx)*167+uint64(rung)+3))
		if err != nil {
			return err
		}
		res.Trials = append(res.Trials, tr)
		rungs[rung] = append(rungs[rung], ranked{cfg: cfg, score: tr.Score, order: cfgIdx})
		return nil
	}

	// Rung 0: evaluate everything.
	for i, cfg := range configs {
		if err := evalAt(cfg, i, 0); err != nil {
			return nil, err
		}
	}
	// Promote level by level, extending the ladder while unstable.
	for rung := 0; rung < currentMax; rung++ {
		keep := max(len(rungs[rung])/sc.eta, 1)
		sorted := sortRanked(rungs[rung])
		for i := 0; i < keep; i++ {
			if err := evalAt(sorted[i].cfg, sorted[i].order, rung+1); err != nil {
				return nil, err
			}
		}
		// Progression check at the ladder top: if the two highest rungs
		// disagree on the leader, the ranking has not settled — extend.
		if rung+1 == currentMax && currentMax < absMaxRung {
			if !rankingStable(rungs[rung], rungs[rung+1]) {
				currentMax++
			}
		}
	}
	// Best = top of the highest populated rung.
	for r := absMaxRung; r >= 0; r-- {
		if len(rungs[r]) == 0 {
			continue
		}
		top := sortRanked(rungs[r])[0]
		res.Best = top.cfg
		res.BestScore = top.score
		break
	}
	return res, nil
}

// rankingStable reports whether the leader at the higher rung is also the
// leader among the same configurations at the lower rung — PASHA's
// soft-rank progression criterion.
func rankingStable(lower, upper []ranked) bool {
	if len(upper) == 0 {
		return false
	}
	upTop := sortRanked(upper)[0]
	// Restrict the lower rung to configurations that reached the upper rung.
	reached := map[string]bool{}
	for _, e := range upper {
		reached[e.cfg.ID()] = true
	}
	var lead incumbent
	for _, e := range lower {
		if reached[e.cfg.ID()] {
			lead.offer(e.cfg, e.score)
		}
	}
	return lead.offers > 0 && lead.cfg.ID() == upTop.cfg.ID()
}
