package hpo

import (
	"context"
	"math"
	"sort"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// dehb runs Hyperband brackets whose configurations evolve from the best
// evaluated ones via rand-to-best/1 differential evolution (Awad et al.,
// IJCAI 2021) adapted to categorical dimensions (index arithmetic modulo
// the value count), instead of uniform sampling.
func (sc schedule) dehb(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
	// The DE mutation factor and crossover rate, DEHB's defaults.
	const f, cr = 0.5, 0.9

	// archive holds every evaluated configuration's best score, by ID.
	archive := map[string]ranked{}

	provider := func(r *rng.RNG, n int) []search.Config {
		// Too little history: uniform sampling, exactly like Hyperband's
		// first bracket.
		if len(archive) < 4 {
			return space.SampleN(r, n)
		}
		// The one ranking rule, ties by configuration ID, so the pool — and
		// through it every parent the stream below draws — does not depend
		// on the archive map's iteration order, NaN scores included.
		ids := make([]string, 0, len(archive))
		for id := range archive {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		pool := make([]ranked, len(ids))
		for i, id := range ids {
			pool[i] = archive[id]
			pool[i].order = i
		}
		pool = sortRanked(pool)
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
		if prev, ok := archive[id]; !ok || Better(score, prev.score) {
			archive[id] = ranked{cfg: cfg, score: score}
		}
	}
	return sc.runBrackets(ctx, ev, comps, o.MaxBrackets, rng.New(o.Seed^0xdeb0), provider, observe)
}
