package hpo

import (
	"context"
	"math"
	"sort"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// DEHBOptions configure Differential Evolution Hyperband (Awad et al.,
// IJCAI 2021), another Hyperband improvement the paper cites: bracket
// populations are proposed by differential evolution over the archive of
// evaluated configurations instead of uniform sampling.
type DEHBOptions struct {
	// Hyperband carries the bracket schedule.
	Hyperband HyperbandOptions
	// F is the DE mutation factor. 0 selects 0.5.
	F float64
	// Cr is the DE crossover rate. 0 selects 0.9 (the DEHB default).
	Cr float64
}

// DEHB runs Hyperband brackets whose configurations evolve from the best
// evaluated ones via rand-to-best/1 differential evolution adapted to
// categorical dimensions (index arithmetic modulo the value count).
//
// Cancellation: when ctx is cancelled or times out the run stops before
// starting another evaluation and returns ctx's error.
func DEHB(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts DEHBOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	hb := opts.Hyperband.withDefaults(comps.K)
	f := opts.F
	if f <= 0 {
		f = 0.5
	}
	cr := opts.Cr
	if cr <= 0 {
		cr = 0.9
	}
	root := rng.New(hb.Seed ^ 0xdeb0)

	// archive holds every completed evaluation (highest score per config).
	type entry struct {
		id    string
		cfg   search.Config
		score float64
	}
	archive := map[string]entry{}

	provider := func(r *rng.RNG, n int) []search.Config {
		// Too little history: uniform sampling, exactly like Hyperband's
		// first bracket.
		if len(archive) < 4 {
			return space.SampleN(r, n)
		}
		pool := make([]entry, 0, len(archive))
		for _, e := range archive {
			pool = append(pool, e)
		}
		// A total order — best score first, ties by configuration ID — so
		// the pool, and through it every parent the stream below draws,
		// does not depend on the archive map's iteration order.
		sort.Slice(pool, func(i, j int) bool {
			if pool[i].score != pool[j].score {
				return pool[i].score > pool[j].score
			}
			return pool[i].id < pool[j].id
		})
		best := pool[0]
		out := make([]search.Config, 0, n)
		seen := map[string]bool{}
		for len(out) < n {
			// rand-to-best/1: parent + F·(best − parent) + F·(r2 − r3),
			// per dimension on choice indices, wrapped into range.
			parent := pool[r.Intn(len(pool))]
			r2 := pool[r.Intn(len(pool))]
			r3 := pool[r.Intn(len(pool))]
			idx := make([]int, len(space.Dims))
			forceDim := r.Intn(len(space.Dims))
			for d, dim := range space.Dims {
				v := float64(parent.cfg.Index(d)) +
					f*float64(best.cfg.Index(d)-parent.cfg.Index(d)) +
					f*float64(r2.cfg.Index(d)-r3.cfg.Index(d))
				cand := int(math.Round(v))
				size := len(dim.Values)
				cand = ((cand % size) + size) % size
				// Binomial crossover with the parent.
				if d != forceDim && r.Float64() > cr {
					cand = parent.cfg.Index(d)
				}
				idx[d] = cand
			}
			cfg := space.NewConfig(idx)
			if seen[cfg.ID()] {
				// Mutation collapsed onto a duplicate; inject exploration.
				cfg = space.Sample(r)
				if seen[cfg.ID()] {
					if len(seen) >= space.Size() {
						break
					}
					continue
				}
			}
			seen[cfg.ID()] = true
			out = append(out, cfg)
		}
		// Pad any shortfall uniformly (tiny spaces).
		for len(out) < n && len(seen) < space.Size() {
			cfg := space.Sample(r)
			if !seen[cfg.ID()] {
				seen[cfg.ID()] = true
				out = append(out, cfg)
			}
		}
		return out
	}
	observe := func(cfg search.Config, budget int, score float64) {
		id := cfg.ID()
		if prev, ok := archive[id]; !ok || score > prev.score {
			archive[id] = entry{id: id, cfg: cfg, score: score}
		}
	}
	res, err := runBrackets(ctx, "dehb", ev, comps, hb, root, provider, observe)
	if err != nil {
		return nil, err
	}
	return res, nil
}
