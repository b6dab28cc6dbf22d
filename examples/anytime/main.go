// Anytime: inspect what the optimizer actually did. Runs SHA and SHA+ on
// the same dataset, prints their per-round trajectories and incumbent
// curves (trace package), then saves the winning model to disk and loads
// it back — the full train → select → persist → serve cycle.
//
// Run with:
//
//	go run ./examples/anytime
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/trace"
)

func main() {
	spec, err := dataset.SpecByName("splice")
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := dataset.Synthesize(spec, 3)
	if err != nil {
		log.Fatal(err)
	}
	dataset.Standardize(train, test)

	space, err := search.TableIIISpace(3)
	if err != nil {
		log.Fatal(err)
	}
	base := nn.DefaultConfig()
	base.MaxIter = 20
	base.LearningRateInit = 0.02

	var bestOut *core.Outcome
	for _, variant := range []core.Variant{core.Vanilla, core.Enhanced} {
		out, err := core.Run(train, test, core.Options{
			Method:      "sha",
			Variant:     variant,
			Space:       space,
			Base:        base,
			DatasetSeed: 3,
			RunOptions:  hpo.RunOptions{Seed: 4},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("--- SHA (%s), test accuracy %.2f%% ---\n", variant, out.TestScore*100)
		trace.Fprint(os.Stdout, out.Search)
		points := trace.Anytime(out.Search.Trials)
		fmt.Printf("  incumbent curve: %s\n\n", trace.Sparkline(points, 50))
		if bestOut == nil || out.TestScore > bestOut.TestScore {
			bestOut = out
		}
	}

	// Persist the winning model and prove the round trip.
	var buf bytes.Buffer
	if err := bestOut.Model.Save(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved winning model: %d bytes (%d parameters)\n", buf.Len(), bestOut.Model.NumParams())
	loaded, err := nn.LoadModel(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reloaded model test accuracy: %.2f%% (original %.2f%%)\n",
		loaded.Score(test)*100, bestOut.TestScore*100)
}
