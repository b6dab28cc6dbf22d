// Housing: hyperparameter optimization for a regression problem
// (simulating the paper's kc-house price dataset). Regression has no class
// labels, so the enhanced method bins the numeric targets by magnitude
// (§III-A) to obtain the label categories that grouping combines with
// feature clusters. Quality is the R² score, as in Table IV.
//
// Run with:
//
//	go run ./examples/housing
package main

import (
	"fmt"
	"log"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/search"
)

func main() {
	spec, err := dataset.SpecByName("kc-house")
	if err != nil {
		log.Fatal(err)
	}
	spec = spec.Scaled(0.5)
	train, test, err := dataset.Synthesize(spec, 11)
	if err != nil {
		log.Fatal(err)
	}
	dataset.Standardize(train, test)
	fmt.Printf("housing-like dataset: %d train / %d test, %d features (regression)\n\n",
		train.Len(), test.Len(), train.Features())

	space, err := search.TableIIISpace(4)
	if err != nil {
		log.Fatal(err)
	}
	base := nn.DefaultConfig()
	base.Activation = nn.Tanh
	base.MaxIter = 25
	base.LearningRateInit = 0.02

	// Hyperband with the enhanced components: their regression grouping
	// bins the target into 4 magnitude bins, combined with feature clusters.
	opts := core.Options{
		Method:      "hyperband",
		Variant:     core.Enhanced,
		Space:       space,
		Base:        base,
		DatasetSeed: 11,
		RunOptions:  hpo.RunOptions{Seed: 3, MaxBrackets: 3},
	}

	out, err := core.Run(train, test, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("HB+ best config: %s\n", out.Search.Best)
	fmt.Printf("test R²: %.4f (train %.4f)\n", out.TestScore, out.TrainScore)
	fmt.Printf("search: %d evaluations in %.2fs\n",
		out.Search.Evaluations, out.TotalTime.Seconds())
}
