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

func init() {
	RegisterFunc(MethodInfo{
		Name:        "hyperband",
		Aliases:     []string{"hb"},
		Description: "bracket schedule over successive halving, trading breadth at small budgets against depth at large ones",
		BudgetAware: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
		o := opts.HB
		o.Seed = opts.Seed
		return Hyperband(ctx, space, ev, comps, o)
	})
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

	var globalBest search.Config
	globalScore := math.Inf(-1)
	haveBest := false
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
			scores := make([]ranked, 0, len(current))
			for ci, cfg := range current {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				tr, err := evalTrial(ev, comps, cfg, ri, round, root.Split(trialTag(round, ci)))
				if err != nil {
					return nil, err
				}
				res.Trials = append(res.Trials, tr)
				scores = append(scores, ranked{cfg: cfg, score: tr.Score, order: ci})
				if observe != nil {
					observe(cfg, ri, tr.Score)
				}
				// Track the best configuration seen at (near-)full budget;
				// fall back to the best at any budget if none reach it.
				if ri >= int(R)/2 && tr.Score > globalScore {
					globalBest, globalScore, haveBest = cfg, tr.Score, true
				}
			}
			round++
			keep := len(current) / opts.Eta
			if i == s || keep < 1 {
				keep = 1
			}
			current = topConfigs(scores, keep)
		}
		if !haveBest && len(current) > 0 {
			// No evaluation reached half budget yet; remember the bracket
			// winner as a provisional best.
			globalBest = current[0]
			haveBest = true
		}
	}
	res.Best = globalBest
	res.BestScore = globalScore
	if math.IsInf(globalScore, -1) {
		res.BestScore = 0
	}
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}
