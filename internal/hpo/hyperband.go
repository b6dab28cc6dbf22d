package hpo

import (
	"context"
	"math"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// configProvider supplies n configurations for a new bracket; Hyperband
// samples uniformly, BOHB queries its TPE model.
type configProvider func(r *rng.RNG, n int) []search.Config

// observer is notified of every completed evaluation (BOHB feeds its KDE).
type observer func(cfg search.Config, budget int, score float64)

// hyperband runs the classic bracket schedule: brackets s = s_max..0 trade
// many configurations at small budgets against few configurations at large
// budgets, each bracket running successive halving with factor η.
//
// With enhanced components this is the paper's "HB+".
func (sc schedule) hyperband(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	provider := func(r *rng.RNG, n int) []search.Config { return space.SampleN(r, n) }
	return sc.runBrackets(ctx, ev, comps, o.MaxBrackets, rng.New(o.Seed^0x4b71), provider, nil)
}

// runBrackets is the shared Hyperband/BOHB/DEHB engine; it runs the first
// maxBrackets brackets, or all of them when maxBrackets is 0.
func (sc schedule) runBrackets(ctx context.Context, ev Evaluator, comps Components, maxBrackets int, root *rng.RNG, provide configProvider, observe observer) (*Result, error) {
	res := &Result{}
	rMin := sc.rMin(comps.K)
	R := float64(ev.FullBudget())
	eta := float64(sc.eta)
	sMax := int(math.Floor(math.Log(R/float64(rMin)) / math.Log(eta)))
	if sMax < 0 {
		sMax = 0
	}
	brackets := sMax + 1
	if maxBrackets > 0 && brackets > maxBrackets {
		brackets = maxBrackets
	}
	bHB := float64(sMax+1) * R

	var best incumbent // among the evaluations at (near-)full budget
	var provisional search.Config
	round := 0
	for bi := 0; bi < brackets; bi++ {
		s := sMax - bi
		n := int(math.Ceil(bHB / R * math.Pow(eta, float64(s)) / float64(s+1)))
		if n < 1 {
			n = 1
		}
		r0 := R * math.Pow(eta, -float64(s))
		configs := provide(root.Split(uint64(bi)+0x100), n)
		if len(configs) == 0 {
			continue
		}
		current := configs
		for i := 0; i <= s && len(current) > 0; i++ {
			ri := int(math.Round(r0 * math.Pow(eta, float64(i))))
			if ri < rMin {
				ri = rMin
			}
			if ri > int(R) {
				ri = int(R)
			}
			trials, err := evalRound(ctx, ev, comps, current, ri, round, 1, root)
			if err != nil {
				return nil, err
			}
			scores := make([]ranked, 0, len(current))
			for ci, tr := range trials {
				res.Trials = append(res.Trials, tr)
				scores = append(scores, ranked{cfg: tr.Config, score: tr.Score, order: ci})
				// BOHB's sampler and DEHB's archive are read only when the
				// next bracket starts, so feeding them after the rung is
				// the same as feeding them after each trial.
				if observe != nil {
					observe(tr.Config, ri, tr.Score)
				}
				if ri >= int(R)/2 {
					best.offer(tr.Config, tr.Score)
				}
			}
			round++
			keep := len(current) / sc.eta
			if i == s || keep < 1 {
				keep = 1
			}
			current = topConfigs(scores, keep)
		}
		if provisional.Space() == nil && len(current) > 0 {
			// The first bracket's winner stands in while no evaluation
			// reaches (near-)full budget.
			provisional = current[0]
		}
	}
	res.Best, res.BestScore = provisional, 0
	if best.offers > 0 {
		res.Best, res.BestScore = best.cfg, best.score
	}
	if math.IsInf(res.BestScore, -1) {
		res.BestScore = 0
	}
	return res, nil
}
