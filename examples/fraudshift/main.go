// Fraudshift: hyperparameter optimization on a heavily imbalanced binary
// problem (2% positives, simulating the paper's credit-card fraud
// dataset). This is where the paper's grouping machinery earns its keep:
// random subsets of a small budget often miss the rare class entirely,
// while group-based sampling keeps every group — including the one
// dominated by fraud cases — represented in every fold. Scores use F1, as
// the paper does for imbalanced datasets.
//
// Run with:
//
//	go run ./examples/fraudshift
package main

import (
	"fmt"
	"log"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

func main() {
	spec, err := dataset.SpecByName("fraud")
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scaled(0.5)
	train, test, err := dataset.Synthesize(spec, 7)
	if err != nil {
		log.Fatal(err)
	}
	dataset.Standardize(train, test)
	counts := train.ClassCounts()
	fmt.Printf("fraud-like dataset: %d instances, positives %.1f%%\n\n",
		train.Len(), 100*float64(counts[1])/float64(train.Len()))

	// Peek at the instance groups the enhanced method will build: feature
	// clusters crossed with (rare-merged) label categories.
	groups, err := grouping.Build(train, grouping.Options{V: 2}, rng.New(1))
	if err != nil {
		log.Fatal(err)
	}
	for g := 0; g < groups.V; g++ {
		pos := 0
		for _, idx := range groups.Members[g] {
			if train.Class[idx] == 1 {
				pos++
			}
		}
		fmt.Printf("group %d: %d instances, %.1f%% positive\n",
			g, groups.Size(g), 100*float64(pos)/float64(groups.Size(g)))
	}
	fmt.Println()

	space, err := search.TableIIISpace(3)
	if err != nil {
		log.Fatal(err)
	}
	base := nn.DefaultConfig()
	base.MaxIter = 20
	base.LearningRateInit = 0.02

	for _, variant := range []core.Variant{core.Vanilla, core.Enhanced} {
		out, err := core.Run(train, test, core.Options{
			Method:      "sha",
			Variant:     variant,
			Space:       space,
			Base:        base,
			DatasetSeed: 7,
			UseF1:       true,
			RunOptions:  hpo.RunOptions{Seed: 2, MaxConfigs: 54},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SHA (%s): test F1 %.2f%%  best: %s\n",
			variant, out.TestScore*100, out.Search.Best)
	}
}
