package hpo

import (
	"context"
	"fmt"
	"time"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// RandomSearchOptions configure the random-search baseline.
type RandomSearchOptions struct {
	// N is the number of configurations to try (the paper's baseline uses
	// 10). 0 selects 10.
	N int
	// Seed drives sampling and training.
	Seed uint64
}

// RandomSearch evaluates N uniformly sampled configurations at full budget
// and returns the best by the components' scorer — the "random" baseline of
// Table IV.
//
// Cancellation: when ctx is cancelled or times out the run stops before
// starting another evaluation and returns ctx's error.
func RandomSearch(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RandomSearchOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	if opts.N <= 0 {
		opts.N = 10
	}
	root := rng.New(opts.Seed ^ 0x7a2d0)
	start := time.Now()
	res := &Result{Method: "random"}
	configs := space.SampleN(root.Split(1), opts.N)
	if len(configs) == 0 {
		return nil, fmt.Errorf("hpo: random search sampled no configurations")
	}
	if err := evalSequential(ctx, ev, comps, configs, root, res); err != nil {
		return nil, err
	}
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}

func init() {
	RegisterFunc(MethodInfo{
		Name:         "random",
		Description:  "uniform random sampling, every trial at full budget (Table IV baseline)",
		HonorsTrials: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
		o := opts.Random
		o.Seed = opts.Seed
		if o.N == 0 {
			o.N = opts.Trials
		}
		return RandomSearch(ctx, space, ev, comps, o)
	})
}
