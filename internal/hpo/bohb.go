package hpo

import (
	"context"

	"enhancedbhpo/internal/bayes"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// BOHBOptions configure BOHB.
type BOHBOptions struct {
	// Hyperband carries the bracket schedule settings.
	Hyperband HyperbandOptions
	// Sampler tunes the TPE model; zero value selects BOHB defaults.
	Sampler bayes.Options
}

// BOHB runs Hyperband brackets whose configurations are proposed by a
// TPE/KDE model fitted to completed evaluations (Falkner et al. 2018),
// instead of uniform sampling. With enhanced components this is the
// paper's "BOHB+".
//
// Cancellation: a cancelled or expired ctx stops the run before the next
// evaluation starts and returns ctx's error.
func BOHB(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts BOHBOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	hb := opts.Hyperband.withDefaults(comps.K)
	root := rng.New(hb.Seed ^ 0xb0b1)
	sampler := bayes.NewSampler(space, opts.Sampler)
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
	res, err := runBrackets(ctx, "bohb", ev, comps, hb, root, provider, observe)
	if err != nil {
		return nil, err
	}
	return res, nil
}
