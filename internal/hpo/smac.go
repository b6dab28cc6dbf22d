package hpo

import (
	"context"
	"fmt"
	"math"
	"time"

	"enhancedbhpo/internal/forest"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// SMACOptions configure the SMAC3-style Bayesian optimizer the paper
// compares against in §IV-B: sequential full-budget evaluations guided by
// a random-forest surrogate with an expected-improvement acquisition.
type SMACOptions struct {
	// N is the total number of configurations evaluated. 0 selects 10
	// (matching the random baseline's trial count).
	N int
	// InitRandom is the number of initial random evaluations before the
	// surrogate kicks in. 0 selects max(3, N/4).
	InitRandom int
	// Candidates is the pool size scored by the acquisition per step.
	// 0 selects 64.
	Candidates int
	// Forest tunes the surrogate.
	Forest forest.Options
	// Seed drives sampling and training.
	Seed uint64
}

func (o SMACOptions) withDefaults() SMACOptions {
	if o.N <= 0 {
		o.N = 10
	}
	if o.InitRandom <= 0 {
		o.InitRandom = o.N / 4
		if o.InitRandom < 3 {
			o.InitRandom = 3
		}
	}
	if o.InitRandom > o.N {
		o.InitRandom = o.N
	}
	if o.Candidates <= 0 {
		o.Candidates = 64
	}
	return o
}

// SMAC runs the random-forest-surrogate sequential optimizer. Every
// evaluation uses the full budget (the paper's observation is that with a
// time budget similar to SHA's, SMAC3 and Optuna behave like random
// search — reproduced by the baselines experiment).
//
// Cancellation: when ctx is cancelled or times out the run stops before
// starting another evaluation and returns ctx's error.
func SMAC(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts SMACOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	root := rng.New(opts.Seed ^ 0x53ac)
	start := time.Now()
	res := &Result{Method: "smac"}
	budget := ev.FullBudget()

	var xs [][]float64
	var ys []float64
	seen := map[string]bool{}
	bestScore := math.Inf(-1)
	var best search.Config

	evaluate := func(cfg search.Config, step int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr, err := evalTrial(ev, comps, cfg, budget, step, root.Split(trialTag(step, 0)))
		if err != nil {
			return err
		}
		res.Trials = append(res.Trials, tr)
		xs = append(xs, encodeOneHot(space, cfg))
		ys = append(ys, tr.Score)
		seen[cfg.ID()] = true
		if tr.Score > bestScore {
			bestScore, best = tr.Score, cfg
		}
		return nil
	}

	initConfigs := space.SampleN(root.Split(1), opts.InitRandom)
	for i, cfg := range initConfigs {
		if err := evaluate(cfg, i); err != nil {
			return nil, err
		}
	}
	for step := len(res.Trials); step < opts.N; step++ {
		cfg, err := smacPropose(space, xs, ys, bestScore, seen, opts, root.Split(uint64(step)+0x51))
		if err != nil {
			return nil, err
		}
		if err := evaluate(cfg, step); err != nil {
			return nil, err
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
		Name:         "smac",
		Description:  "sequential full-budget Bayesian optimization with a random-forest surrogate (SMAC3-style, §IV-B baseline)",
		HonorsTrials: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
		o := opts.SMAC
		o.Seed = opts.Seed
		if o.N == 0 {
			o.N = opts.Trials
		}
		return SMAC(ctx, space, ev, comps, o)
	})
}

// smacPropose fits the surrogate and returns the candidate with the best
// expected improvement, falling back to random on degenerate data.
func smacPropose(space *search.Space, xs [][]float64, ys []float64, bestScore float64, seen map[string]bool, opts SMACOptions, r *rng.RNG) (search.Config, error) {
	if len(xs) < 2 {
		return space.Sample(r), nil
	}
	fOpts := opts.Forest
	fOpts.Seed = r.Uint64()
	model, err := forest.Train(xs, ys, fOpts)
	if err != nil {
		return search.Config{}, fmt.Errorf("hpo: smac surrogate: %w", err)
	}
	var best search.Config
	bestEI := math.Inf(-1)
	found := false
	for c := 0; c < opts.Candidates; c++ {
		cand := space.Sample(r)
		if seen[cand.ID()] {
			continue
		}
		mean, variance := model.Predict(encodeOneHot(space, cand))
		ei := expectedImprovement(mean, math.Sqrt(variance), bestScore)
		if ei > bestEI {
			bestEI, best, found = ei, cand, true
		}
	}
	if !found {
		// Candidate pool exhausted by duplicates (tiny space): take any
		// unseen config, or repeat the best-known one.
		for _, cand := range space.Enumerate() {
			if !seen[cand.ID()] {
				return cand, nil
			}
		}
		return space.Sample(r), nil
	}
	return best, nil
}

// expectedImprovement is the standard EI for maximization.
func expectedImprovement(mean, std, best float64) float64 {
	if std < 1e-12 {
		if mean > best {
			return mean - best
		}
		return 0
	}
	z := (mean - best) / std
	return (mean-best)*normCDF(z) + std*normPDF(z)
}

func normPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func normCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// encodeOneHot turns a categorical configuration into a one-hot feature
// row for the surrogate.
func encodeOneHot(space *search.Space, c search.Config) []float64 {
	width := 0
	for _, d := range space.Dims {
		width += len(d.Values)
	}
	row := make([]float64, width)
	off := 0
	for d, dim := range space.Dims {
		row[off+c.Index(d)] = 1
		off += len(dim.Values)
	}
	return row
}
