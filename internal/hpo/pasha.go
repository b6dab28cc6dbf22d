package hpo

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// PASHAOptions configure Progressive ASHA (Bohdal et al., 2023), which the
// paper lists among the Hyperband improvements: instead of fixing the
// maximum budget up front, PASHA starts with a small rung ladder and only
// grows it while the ranking of the top configurations is still unstable
// across the two highest rungs — saving the large-budget evaluations that
// a settled ranking makes unnecessary.
type PASHAOptions struct {
	// Eta is the promotion factor. 0 selects 3.
	Eta int
	// MinBudget is the rung-0 budget. 0 selects 4·K.
	MinBudget int
	// MaxConfigs is the number of sampled configurations. 0 selects
	// min(27, space size).
	MaxConfigs int
	// Seed drives sampling and training.
	Seed uint64
}

func (o PASHAOptions) withDefaults(k, spaceSize int) PASHAOptions {
	if o.Eta < 2 {
		o.Eta = 3
	}
	if o.MinBudget <= 0 {
		o.MinBudget = 4 * k
	}
	if o.MaxConfigs <= 0 {
		o.MaxConfigs = 27
		if o.MaxConfigs > spaceSize {
			o.MaxConfigs = spaceSize
		}
	}
	return o
}

// PASHA runs progressive successive halving: the rung ladder starts at two
// rungs and is extended only while the top of the ranking disagrees
// between the two highest rungs (soft-rank instability), up to the full
// budget.
//
// Cancellation: when ctx is cancelled or times out the run stops before
// starting another evaluation and returns ctx's error.
func PASHA(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts PASHAOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(comps.K, space.Size())
	root := rng.New(opts.Seed ^ 0x9a57a)
	full := ev.FullBudget()
	absMaxRung := 0
	for b := opts.MinBudget; b < full; b *= opts.Eta {
		absMaxRung++
	}
	budgetOf := func(rung int) int {
		b := opts.MinBudget
		for i := 0; i < rung; i++ {
			b *= opts.Eta
		}
		if b > full {
			b = full
		}
		return b
	}
	configs := space.SampleN(root.Split(1), opts.MaxConfigs)
	if len(configs) == 0 {
		return nil, fmt.Errorf("hpo: PASHA sampled no configurations")
	}

	start := time.Now()
	res := &Result{Method: "pasha"}
	rungs := make([][]ranked, absMaxRung+1)
	// currentMax is the progressive rung cap; starts with a two-rung ladder.
	currentMax := 1
	if currentMax > absMaxRung {
		currentMax = absMaxRung
	}

	evalAt := func(cfg search.Config, cfgIdx, rung int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr, err := evalTrial(ev, comps, cfg, budgetOf(rung), rung, root.Split(uint64(cfgIdx)*167+uint64(rung)+3))
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
		keep := len(rungs[rung]) / opts.Eta
		if keep < 1 {
			keep = 1
		}
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
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}

func init() {
	RegisterFunc(MethodInfo{
		Name:             "pasha",
		Description:      "progressive ASHA: the rung ladder grows only while the top ranking is unstable (Bohdal et al. 2023)",
		BudgetAware:      true,
		HonorsMaxConfigs: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
		o := opts.PASHA
		o.Seed = opts.Seed
		if o.MaxConfigs == 0 {
			o.MaxConfigs = opts.MaxConfigs
		}
		return PASHA(ctx, space, ev, comps, o)
	})
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
	bestScore := math.Inf(-1)
	var bestID string
	for _, e := range lower {
		if reached[e.cfg.ID()] && e.score > bestScore {
			bestScore = e.score
			bestID = e.cfg.ID()
		}
	}
	return bestID == upTop.cfg.ID()
}

func sortRanked(rs []ranked) []ranked {
	sorted := append([]ranked(nil), rs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].score != sorted[j].score {
			return sorted[i].score > sorted[j].score
		}
		return sorted[i].order < sorted[j].order
	})
	return sorted
}
