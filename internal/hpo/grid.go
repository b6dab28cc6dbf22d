package hpo

import (
	"context"
	"fmt"
	"time"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// GridSearchOptions configure exhaustive grid search — the traditional
// baseline the paper's background section starts from. Every configuration
// is evaluated at full budget, which is exact but typically far more
// expensive than any bandit method.
type GridSearchOptions struct {
	// MaxConfigs caps the grid (0 = the whole space). When the cap bites,
	// the grid is subsampled uniformly, keeping the method deterministic
	// per seed.
	MaxConfigs int
	// Seed drives subsampling and training.
	Seed uint64
}

// GridSearch evaluates the (possibly capped) full grid at full budget.
//
// Cancellation: when ctx is cancelled or times out the run stops before
// starting another evaluation and returns ctx's error.
func GridSearch(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts GridSearchOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	root := rng.New(opts.Seed ^ 0x6e1d)
	configs := space.Enumerate()
	if opts.MaxConfigs > 0 && opts.MaxConfigs < len(configs) {
		configs = space.SampleN(root.Split(1), opts.MaxConfigs)
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("hpo: grid search has no configurations")
	}
	start := time.Now()
	res := &Result{Method: "grid"}
	if err := evalSequential(ctx, ev, comps, configs, root, res); err != nil {
		return nil, err
	}
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}
