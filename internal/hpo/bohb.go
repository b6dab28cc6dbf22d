package hpo

import (
	"context"

	"enhancedbhpo/internal/bayes"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// bohb runs Hyperband brackets whose configurations are proposed by a
// TPE/KDE model fitted to completed evaluations (Falkner et al. 2018),
// instead of uniform sampling. With enhanced components this is the
// paper's "BOHB+".
func (sc schedule) bohb(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	sampler := bayes.NewSampler(space, bayes.Options{})
	provider := func(r *rng.RNG, n int) []search.Config {
		out := make([]search.Config, 0, n)
		seen := map[string]bool{}
		for attempts := 0; len(out) < n && attempts < n*8; attempts++ {
			c := sampler.Sample(r.Split(uint64(attempts) + 1))
			if !seen[c.ID()] {
				seen[c.ID()] = true
				out = append(out, c)
			}
		}
		// Fill any shortfall (tiny spaces, heavy duplication) uniformly.
		for len(out) < n {
			c := space.Sample(r)
			if !seen[c.ID()] {
				seen[c.ID()] = true
				out = append(out, c)
			}
			if len(seen) >= space.Size() {
				break
			}
		}
		return out
	}
	observe := func(cfg search.Config, budget int, score float64) {
		sampler.Add(bayes.Observation{Config: cfg, Budget: budget, Score: score})
	}
	return sc.runBrackets(ctx, ev, comps, o.MaxBrackets, rng.New(o.Seed^0xb0b1), provider, observe)
}
