// Package bayes implements the model-based configuration sampler behind
// BOHB (Falkner et al., ICML 2018): a Tree-Parzen-Estimator-style density
// model fitted to observed (configuration, score) pairs. Observations at
// the largest budget with enough data are split into a "good" set (top
// quantile) and a "bad" set; categorical kernel-density estimates are
// fitted to both, and new configurations are proposed by sampling from the
// good density and ranking candidates by the density ratio good/bad.
//
// The space is fully categorical (Table III), so the KDE reduces to
// Laplace-smoothed frequency tables per dimension — the same treatment
// BOHB's KDE applies to categorical dimensions.
package bayes

import (
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// Observation is one completed evaluation fed back to the sampler.
type Observation struct {
	// Config is the evaluated configuration.
	Config search.Config
	// Budget is the number of instances used for the evaluation.
	Budget int
	// Score is the configuration's evaluation score (higher is better).
	Score float64
}

// Options tune the sampler.
type Options struct {
	// MinPoints is the minimum number of observations at a budget before
	// the model is used; below it the sampler falls back to random. 0
	// selects |dims|+2, mirroring BOHB's d+1 rule with one extra point.
	MinPoints int
	// GoodFraction is the quantile of observations labelled "good".
	// 0 selects BOHB's default 0.15.
	GoodFraction float64
	// Bandwidth is the Laplace smoothing mass added to every categorical
	// value. 0 selects 1.
	Bandwidth float64
	// Candidates is how many proposals are drawn from the good density
	// before picking the best ratio. 0 selects 24.
	Candidates int
	// RandomFraction is the probability of ignoring the model and sampling
	// uniformly, preserving exploration. 0 selects BOHB's default 1/3.
	RandomFraction float64
}

func (o Options) withDefaults(dims int) Options {
	if o.MinPoints <= 0 {
		o.MinPoints = dims + 2
	}
	if o.GoodFraction <= 0 {
		o.GoodFraction = 0.15
	}
	if o.Bandwidth <= 0 {
		o.Bandwidth = 1
	}
	if o.Candidates <= 0 {
		o.Candidates = 24
	}
	if o.RandomFraction <= 0 {
		o.RandomFraction = 1.0 / 3
	}
	return o
}

// Sampler proposes configurations using the TPE density-ratio model.
type Sampler struct {
	space *search.Space
	opts  Options
	// byBudget[budget] collects observations at that budget.
	byBudget map[int][]Observation
}

// NewSampler returns a sampler over the given space.
func NewSampler(space *search.Space, opts Options) *Sampler {
	return &Sampler{
		space:    space,
		opts:     opts.withDefaults(len(space.Dims)),
		byBudget: make(map[int][]Observation),
	}
}

// Add feeds one completed evaluation back into the model.
func (s *Sampler) Add(obs Observation) {
	s.byBudget[obs.Budget] = append(s.byBudget[obs.Budget], obs)
}

// Sample proposes a configuration: model-based when enough observations
// exist at some budget, uniform otherwise (and with probability
// RandomFraction regardless, as in BOHB).
func (s *Sampler) Sample(r *rng.RNG) search.Config {
	if r.Float64() < s.opts.RandomFraction {
		return s.space.Sample(r)
	}
	obs := s.modelObservations()
	if obs == nil {
		return s.space.Sample(r)
	}
	good, bad := s.split(obs)
	goodKDE := s.fitKDE(good)
	badKDE := s.fitKDE(bad)
	bestRatio := -1.0
	var best search.Config
	for c := 0; c < s.opts.Candidates; c++ {
		cand := s.sampleFrom(goodKDE, r)
		ratio := s.density(goodKDE, cand) / s.density(badKDE, cand)
		if ratio > bestRatio {
			bestRatio = ratio
			best = cand
		}
	}
	return best
}

// modelObservations returns the observation set at the largest budget that
// has at least MinPoints observations, or nil when no budget qualifies —
// BOHB always models the highest-fidelity data available.
func (s *Sampler) modelObservations() []Observation {
	bestBudget := -1
	for b, obs := range s.byBudget {
		if len(obs) >= s.opts.MinPoints && b > bestBudget {
			bestBudget = b
		}
	}
	if bestBudget < 0 {
		return nil
	}
	return s.byBudget[bestBudget]
}

// split partitions observations into good (top GoodFraction by score) and
// bad, guaranteeing at least one observation on each side.
func (s *Sampler) split(obs []Observation) (good, bad []Observation) {
	sorted := append([]Observation(nil), obs...)
	// insertion sort by descending score; observation counts are small.
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Score > sorted[j-1].Score; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	nGood := int(float64(len(sorted)) * s.opts.GoodFraction)
	if nGood < 1 {
		nGood = 1
	}
	if nGood >= len(sorted) {
		nGood = len(sorted) - 1
	}
	return sorted[:nGood], sorted[nGood:]
}

// kde holds, per dimension, the smoothed probability of each value.
type kde [][]float64

// fitKDE builds the Laplace-smoothed frequency tables.
func (s *Sampler) fitKDE(obs []Observation) kde {
	tables := make(kde, len(s.space.Dims))
	for d, dim := range s.space.Dims {
		counts := make([]float64, len(dim.Values))
		for i := range counts {
			counts[i] = s.opts.Bandwidth
		}
		for _, o := range obs {
			counts[o.Config.Index(d)]++
		}
		var total float64
		for _, c := range counts {
			total += c
		}
		for i := range counts {
			counts[i] /= total
		}
		tables[d] = counts
	}
	return tables
}

func (s *Sampler) sampleFrom(k kde, r *rng.RNG) search.Config {
	idx := make([]int, len(s.space.Dims))
	for d := range idx {
		idx[d] = r.Choice(k[d])
	}
	return s.space.NewConfig(idx)
}

func (s *Sampler) density(k kde, c search.Config) float64 {
	p := 1.0
	for d := range s.space.Dims {
		p *= k[d][c.Index(d)]
	}
	return p
}
