// Quickstart: optimize MLP hyperparameters on a simulated dataset with the
// paper's enhanced Successive Halving ("SHA+") and compare against the
// vanilla version.
//
// Run with:
//
//	go run ./examples/quickstart
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
	// 1. Get data. Synthesize stands in for loading a real dataset: the
	//    "australian" spec mirrors that dataset's shape (690 instances, 14
	//    features, 2 classes).
	spec, err := dataset.SpecByName("australian")
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := dataset.Synthesize(spec, 42)
	if err != nil {
		log.Fatal(err)
	}
	dataset.Standardize(train, test)
	fmt.Printf("dataset: %d train / %d test instances, %d features\n\n",
		train.Len(), test.Len(), train.Features())

	// 2. Define the search space: the first 4 Table III hyperparameters
	//    (hidden sizes, activation, solver, initial learning rate) —
	//    162 configurations, the paper's §IV-B setting.
	space, err := search.TableIIISpace(4)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Shared training settings for the non-searched hyperparameters.
	base := nn.DefaultConfig()
	base.MaxIter = 25
	base.LearningRateInit = 0.02

	// 4. Run vanilla SHA and the enhanced SHA+ and compare.
	for _, variant := range []core.Variant{core.Vanilla, core.Enhanced} {
		out, err := core.Run(train, test, core.Options{
			Method:      "sha",
			Variant:     variant,
			Space:       space,
			Base:        base,
			DatasetSeed: 42,
			RunOptions:  hpo.RunOptions{Seed: 3},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("SHA (%s)\n", variant)
		fmt.Printf("  best config: %s\n", out.Search.Best)
		fmt.Printf("  test accuracy: %.2f%%\n", out.TestScore*100)
		fmt.Printf("  search time: %.2fs (%d evaluations)\n\n",
			out.TotalTime.Seconds(), out.Search.Evaluations)
	}
}
