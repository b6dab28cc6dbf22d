package hpo_test

import (
	"context"
	"fmt"

	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/scoring"
	"enhancedbhpo/internal/search"
)

// funcEvaluator tunes an arbitrary black-box function instead of an MLP:
// anything that maps (configuration, budget) to fold-like scores can ride
// the bandit framework. Larger budgets give less noisy measurements, like
// real training does.
type funcEvaluator struct {
	full int
}

func (f funcEvaluator) FullBudget() int { return f.full }

func (f funcEvaluator) Evaluate(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
	x := float64(c.Value("x").(int))
	y := float64(c.Value("y").(int))
	// True quality peaks at (3, 4); noise shrinks with budget.
	quality := 1 - ((x-3)*(x-3)+(y-4)*(y-4))/50
	noise := 0.2 * float64(f.full) / float64(budget) / float64(f.full)
	scores := make([]float64, 5)
	for i := range scores {
		scores[i] = quality + r.NormScaled(0, noise)
	}
	return scores, nil
}

// Successive halving over a custom integer grid with a custom evaluator:
// no datasets, no neural networks — just the bandit machinery.
func ExampleSuccessiveHalving() {
	space := &search.Space{Dims: []search.Dimension{
		{Name: "x", Values: []any{0, 1, 2, 3, 4, 5}},
		{Name: "y", Values: []any{0, 1, 2, 3, 4, 5}},
	}}
	comps := hpo.Components{K: 5, Scorer: scoring.MeanScorer{}}
	res, err := hpo.SuccessiveHalving(context.Background(), space.Enumerate(), funcEvaluator{full: 3600}, comps, hpo.SHAOptions{Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Println("best:", res.Best)
	fmt.Println("rounds:", res.Trials[len(res.Trials)-1].Round+1)
	// Output:
	// best: x=3 y=4
	// rounds: 5
}
