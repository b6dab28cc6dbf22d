package hpo

import (
	"context"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// randomSearch evaluates Trials uniformly sampled configurations at full
// budget and returns the best by the components' scorer — the "random"
// baseline of Table IV.
func randomSearch(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	root := rng.New(o.Seed ^ 0x7a2d0)
	return evalSequential(ctx, ev, comps, space.SampleN(root.Split(1), o.trials()), root)
}
