package hpo

import (
	"context"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// gridSearch evaluates the full grid at full budget — the traditional
// baseline the paper's background section starts from: exact, but
// typically far more expensive than any bandit method. MaxConfigs caps the
// grid by a uniform subsample, drawn by the seed.
func gridSearch(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	root := rng.New(o.Seed ^ 0x6e1d)
	var configs []search.Config
	if o.MaxConfigs > 0 && o.MaxConfigs < space.Size() {
		configs = space.SampleN(root.Split(1), o.MaxConfigs)
	} else {
		configs = space.Enumerate()
	}
	return evalSequential(ctx, ev, comps, configs, root)
}
