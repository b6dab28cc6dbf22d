// Command bhpo runs one hyperparameter optimization on a simulated dataset
// and prints the selected configuration with its train/test quality —
// a quick way to compare a vanilla bandit method against its enhanced
// ("+") counterpart.
//
// Usage:
//
//	bhpo -dataset a9a -method sha -enhanced [-hps 4 | -space file.json] \
//	     [-configs 162] [-scale 0.35] [-seed 1] [-iters 20] [-f1] \
//	     [-trace | -json]
//	bhpo -csv data.csv [-kind regression] -method hb ...
//	bhpo watch [-after N] [-retries 8] [-quiet] http://host:8149/jobs/job-1
//
// A run is core.Run with -seed and -configs as the method's hpo.RunOptions:
// -configs caps the configurations of the methods that honor MaxConfigs
// (sha, asha, pasha, grid) and is ignored by the rest; random, smac and
// tpe run their default 10 trials, and hyperband, bohb and dehb run every
// bracket (Table IV caps them at 3). -seed is both of a job's seeds: it
// synthesizes the data (and so seeds the enhanced grouping) and seeds the
// search and the final refit. So `bhpo -seed N ... -json` reports the best
// configuration, best score and test score of a bhpod job of the same
// spec with "seed":N,"dataset_seed":N, bit for bit.
//
// The watch subcommand follows a job running on a bhpod daemon: it
// subscribes to the job's Server-Sent Events feed and renders a live
// incumbent ticker (curve points, rung promotions, retries, failures),
// resuming across dropped connections via Last-Event-ID, and prints the
// final snapshot when the job finishes.
//
// Datasets: australian splice gisette machine nticusdroid a9a fraud
// credit2023 satimage usps molecules kc-house. Methods: every optimizer in
// the hpo registry — random sha hyperband (alias hb) bohb asha pasha dehb
// smac tpe (alias optuna) grid.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
	"enhancedbhpo/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "watch" {
		os.Exit(watchMain(os.Args[2:]))
	}
	var (
		dsName   = flag.String("dataset", "australian", "simulated dataset name")
		csvPath  = flag.String("csv", "", "optional CSV file (last column = label/target) used instead of -dataset")
		csvKind  = flag.String("kind", "classification", "task kind for -csv: classification or regression")
		method   = flag.String("method", "sha", "optimizer: "+strings.Join(hpo.MethodNames(), ", "))
		enhanced = flag.Bool("enhanced", false, "use the paper's enhanced components (grouping, general+special folds, UCB-β score)")
		hps      = flag.Int("hps", 4, "number of Table III hyperparameters (1-8)")
		spaceP   = flag.String("space", "", "optional JSON file defining a custom search space (overrides -hps)")
		configs  = flag.Int("configs", 162, "max configurations (sha/asha/pasha start set, grid cap)")
		scale    = flag.Float64("scale", 0.35, "dataset scale factor")
		seed     = flag.Uint64("seed", 1, "random seed")
		iters    = flag.Int("iters", 20, "MLP training epochs")
		useF1    = flag.Bool("f1", false, "report F1 instead of accuracy")
		showTr   = flag.Bool("trace", false, "print the per-round trajectory and incumbent curve")
		asJSON   = flag.Bool("json", false, "emit the outcome as JSON instead of text")
	)
	flag.Parse()
	if err := run(*dsName, *csvPath, *csvKind, *spaceP, *method, *enhanced, *hps, *configs, *scale, *seed, *iters, *useF1, *showTr, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "bhpo:", err)
		os.Exit(1)
	}
}

func run(dsName, csvPath, csvKind, spacePath, methodName string, enhanced bool, hps, configs int, scale float64, seed uint64, iters int, useF1, showTrace, asJSON bool) error {
	train, test, err := loadData(dsName, csvPath, csvKind, scale, seed)
	if err != nil {
		return err
	}

	method, ok := hpo.CanonicalName(methodName)
	if !ok {
		return fmt.Errorf("unknown method %q (known: %s)", methodName, strings.Join(hpo.MethodNames(), ", "))
	}
	var space *search.Space
	if spacePath != "" {
		f, err := os.Open(spacePath)
		if err != nil {
			return err
		}
		space, err = search.ReadSpaceJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		space, err = search.TableIIISpace(hps)
		if err != nil {
			return err
		}
	}
	variant := core.Vanilla
	if enhanced {
		variant = core.Enhanced
	}
	if !asJSON {
		fmt.Printf("dataset %s (%s): %d train / %d test instances, %d features\n",
			train.Name, train.Kind, train.Len(), test.Len(), train.Features())
		fmt.Printf("space: %d configurations over %d hyperparameters\n", space.Size(), len(space.Dims))
		fmt.Printf("method: %s (%s)\n\n", method, variant)
	}

	out, err := core.Run(train, test, core.Options{
		Method:      method,
		Variant:     variant,
		Space:       space,
		Base:        core.BaseConfig(iters),
		DatasetSeed: seed,
		UseF1:       useF1,
		RunOptions:  hpo.RunOptions{Seed: seed, MaxConfigs: configs},
	})
	if err != nil {
		return err
	}

	if asJSON {
		return out.WriteJSON(os.Stdout)
	}
	fmt.Printf("selected configuration: %s\n", out.Search.Best)
	fmt.Printf("evaluations: %d trials\n", out.Search.Evaluations)
	fmt.Printf("train score: %.4f\n", out.TrainScore)
	fmt.Printf("test score:  %.4f\n", out.TestScore)
	fmt.Printf("setup %.2fs + search %.2fs (total %.2fs)\n",
		out.SetupTime.Seconds(), out.SearchTime.Seconds(), out.TotalTime.Seconds())
	if showTrace {
		fmt.Println()
		trace.Fprint(os.Stdout, out.Search)
		points := trace.Anytime(out.Search.Trials)
		fmt.Printf("incumbent curve: %s\n", trace.Sparkline(points, 50))
	}
	return nil
}

// loadData either synthesizes a simulated dataset or loads a user CSV
// (splitting off 20% for testing, per the paper's 80/20 rule), and
// standardizes both splits with the training split's statistics.
func loadData(dsName, csvPath, csvKind string, scale float64, seed uint64) (train, test *dataset.Dataset, err error) {
	if csvPath == "" {
		return core.Data(dsName, scale, seed)
	}
	var kind dataset.Kind
	switch csvKind {
	case "classification":
		kind = dataset.Classification
	case "regression":
		kind = dataset.Regression
	default:
		return nil, nil, fmt.Errorf("unknown -kind %q", csvKind)
	}
	f, err := os.Open(csvPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	full, err := dataset.ReadCSV(f, kind, csvPath)
	if err != nil {
		return nil, nil, err
	}
	train, test = full.TrainTestSplit(rng.New(seed), 0.2)
	dataset.Standardize(train, test)
	return train, test, nil
}
