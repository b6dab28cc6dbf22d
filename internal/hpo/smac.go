package hpo

import (
	"context"
	"fmt"
	"math"

	"enhancedbhpo/internal/forest"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// smacCandidates is the pool of random configurations the acquisition
// scores per step.
const smacCandidates = 64

// smac runs the SMAC3-style Bayesian optimizer the paper compares against
// in §IV-B: sequential full-budget evaluations guided by a random-forest
// surrogate with an expected-improvement acquisition, after max(3,
// Trials/4) random ones. Every evaluation uses the full budget (the paper's
// observation is that with a time budget similar to SHA's, SMAC3 and
// Optuna behave like random search — reproduced by the baselines
// experiment).
func smac(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	n := o.trials()
	root := rng.New(o.Seed ^ 0x53ac)
	res := &Result{}
	budget := ev.FullBudget()

	var xs [][]float64
	var ys []float64
	seen := map[string]bool{}
	var best incumbent

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
		best.offer(cfg, tr.Score)
		return nil
	}

	initConfigs := space.SampleN(root.Split(1), min(max(3, n/4), n))
	for i, cfg := range initConfigs {
		if err := evaluate(cfg, i); err != nil {
			return nil, err
		}
	}
	for step := len(res.Trials); step < n; step++ {
		cfg, err := smacPropose(space, xs, ys, best.score, seen, root.Split(uint64(step)+0x51))
		if err != nil {
			return nil, err
		}
		if err := evaluate(cfg, step); err != nil {
			return nil, err
		}
	}
	res.Best, res.BestScore = best.cfg, best.score
	return res, nil
}

// smacPropose fits the surrogate and returns the candidate with the best
// expected improvement, falling back to random on degenerate data.
func smacPropose(space *search.Space, xs [][]float64, ys []float64, bestScore float64, seen map[string]bool, r *rng.RNG) (search.Config, error) {
	if len(xs) < 2 {
		return space.Sample(r), nil
	}
	model, err := forest.Train(xs, ys, forest.Options{Seed: r.Uint64()})
	if err != nil {
		return search.Config{}, fmt.Errorf("hpo: smac surrogate: %w", err)
	}
	var best search.Config
	bestEI := math.Inf(-1)
	found := false
	for c := 0; c < smacCandidates; c++ {
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
