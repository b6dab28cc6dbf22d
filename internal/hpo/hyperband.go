package hpo

import (
	"context"
	"math"
	"time"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// HyperbandOptions configure Hyperband and BOHB (which shares the bracket
// structure).
type HyperbandOptions struct {
	// Eta is the elimination factor. 0 selects 3, Hyperband's default.
	Eta int
	// MinBudget is the smallest per-configuration budget r_min; together
	// with the full budget R it determines the bracket count
	// s_max = floor(log_eta(R/r_min)). 0 selects 4·K of the components.
	MinBudget int
	// MaxBrackets caps the number of brackets actually run (0 = all).
	// Useful for the scaled-down experiment harness.
	MaxBrackets int
	// Seed drives sampling and training.
	Seed uint64
}

func (o HyperbandOptions) withDefaults(k int) HyperbandOptions {
	if o.Eta < 2 {
		o.Eta = 3
	}
	if o.MinBudget <= 0 {
		o.MinBudget = 4 * k
	}
	return o
}

// configProvider supplies n configurations for a new bracket; Hyperband
// samples uniformly, BOHB queries its TPE model.
type configProvider func(r *rng.RNG, n int) []search.Config

// observer is notified of every completed evaluation (BOHB feeds its KDE).
type observer func(cfg search.Config, budget int, score float64)

// Hyperband runs the classic bracket schedule: brackets s = s_max..0 trade
// many configurations at small budgets against few configurations at large
// budgets, each bracket running successive halving with factor Eta.
//
// With enhanced components this is the paper's "HB+".
//
// Cancellation: a cancelled or expired ctx stops the run before the next
// evaluation starts and returns ctx's error.
func Hyperband(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts HyperbandOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	opts = opts.withDefaults(comps.K)
	root := rng.New(opts.Seed ^ 0x4b71)
	provider := func(r *rng.RNG, n int) []search.Config { return space.SampleN(r, n) }
	return runBrackets(ctx, "hyperband", ev, comps, opts, root, provider, nil)
}

// runBrackets is the shared Hyperband/BOHB engine.
func runBrackets(ctx context.Context, method string, ev Evaluator, comps Components, opts HyperbandOptions, root *rng.RNG, provide configProvider, observe observer) (*Result, error) {
	start := time.Now()
	res := &Result{Method: method}
	R := float64(ev.FullBudget())
	eta := float64(opts.Eta)
	sMax := int(math.Floor(math.Log(R/float64(opts.MinBudget)) / math.Log(eta)))
	if sMax < 0 {
		sMax = 0
	}
	brackets := sMax + 1
	if opts.MaxBrackets > 0 && brackets > opts.MaxBrackets {
		brackets = opts.MaxBrackets
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
			if ri < opts.MinBudget {
				ri = opts.MinBudget
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
			keep := len(current) / opts.Eta
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
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}
