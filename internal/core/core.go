// Package core is the public façade of the repository: it wires the
// substrates (datasets, MLPs, clustering) and the bandit framework into a
// single entry point. A caller names any method of the hpo registry
// (random, sha, hyperband, bohb, asha, pasha, dehb, smac, tpe or grid, or
// an alias such as "hb"), picks a Variant (Vanilla, or the paper's
// Enhanced components: instance grouping, general+special folds and the
// variance/size-aware score), calls Run, and receives the selected
// configuration, a model refitted on the full training set, and train/test
// scores — the quantities reported in the paper's Table IV.
package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// Variant selects vanilla or paper-enhanced components.
type Variant int

const (
	// Vanilla uses stratified folds and the plain-mean score.
	Vanilla Variant = iota
	// Enhanced uses the paper's grouping, general+special folds and UCB-β
	// score — the "+" variants of Table IV.
	Enhanced
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	if v == Enhanced {
		return "enhanced"
	}
	return "vanilla"
}

// Options configure a Run.
type Options struct {
	// Method names the optimizer: a registry name or alias
	// (hpo.MethodNames). Required.
	Method string
	// Variant selects vanilla or enhanced components.
	Variant Variant
	// Space is the configuration space to search. Required.
	Space *search.Space
	// Base supplies the non-searched nn.Config fields; zero value selects
	// nn.DefaultConfig.
	Base nn.Config
	// DatasetSeed is the seed the data was synthesized from. It seeds the
	// enhanced variant's grouping (see Components).
	DatasetSeed uint64
	// UseF1 scores classification folds (and the final model) by F1.
	UseF1 bool
	// RunOptions tune the method: Seed also seeds the final refit (see
	// RefitStream), so with DatasetSeed it makes the whole run
	// reproducible.
	hpo.RunOptions
}

// Outcome is the result of one optimization run.
type Outcome struct {
	// Search is the raw optimizer result (best config, trials, timing).
	Search *hpo.Result
	// Model is the best configuration refitted on the full training set.
	Model *nn.Model
	// TrainScore and TestScore are the refitted model's scores (accuracy,
	// F1 or R² depending on the task and UseF1).
	TrainScore, TestScore float64
	// SetupTime covers group construction (zero for vanilla variants).
	SetupTime time.Duration
	// SearchTime covers the optimizer run.
	SearchTime time.Duration
	// TotalTime = SetupTime + SearchTime + final refit.
	TotalTime time.Duration
}

// Run optimizes hyperparameters on train and reports final quality on test.
func Run(train, test *dataset.Dataset, opts Options) (*Outcome, error) {
	return RunCtx(context.Background(), train, test, opts)
}

// RunCtx is Run with cancellation: every registered method stops before
// starting another evaluation once ctx is cancelled and returns ctx's
// error.
func RunCtx(ctx context.Context, train, test *dataset.Dataset, opts Options) (*Outcome, error) {
	if opts.Space == nil {
		return nil, fmt.Errorf("core: Options.Space is required")
	}
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("core: train: %w", err)
	}
	if err := test.Validate(); err != nil {
		return nil, fmt.Errorf("core: test: %w", err)
	}
	base := opts.Base
	if len(base.HiddenLayerSizes) == 0 {
		base = nn.DefaultConfig()
	}
	totalStart := time.Now()

	comps, err := Components(train, opts.Variant, opts.DatasetSeed)
	if err != nil {
		return nil, fmt.Errorf("core: building %s components: %w", opts.Variant, err)
	}
	var setup time.Duration
	if opts.Variant == Enhanced {
		setup = time.Since(totalStart)
	}
	ev := hpo.NewCVEvaluator(train, base, comps)
	ev.UseF1 = opts.UseF1
	// An evaluation lends its folds to idle cores, as a served job's do to
	// idle evaluation slots: beside the goroutines the method runs on,
	// this run holds at most GOMAXPROCS−1 more, one token each.
	spare := make(chan struct{}, runtime.GOMAXPROCS(0)-1)
	giveBack := func() { <-spare }
	ev.Spare = func() func() {
		select {
		case spare <- struct{}{}:
			return giveBack
		default:
			return nil
		}
	}

	// The job service resolves methods in the same registry and takes its
	// components and refit stream from this package, so a served job of
	// one spec is this computation.
	method, ok := hpo.LookupMethod(opts.Method)
	if !ok {
		return nil, fmt.Errorf("core: unknown method %q", opts.Method)
	}
	res, err := method.Run(ctx, opts.Space, ev, comps, opts.RunOptions)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", method.Info().Name, err)
	}

	model, err := ev.FitFull(res.Best, RefitStream(opts.Seed).Uint64())
	if err != nil {
		return nil, fmt.Errorf("core: refitting best configuration: %w", err)
	}
	out := &Outcome{
		Search:     res,
		Model:      model,
		TrainScore: ev.ScoreModel(model, train),
		TestScore:  ev.ScoreModel(model, test),
		SetupTime:  setup,
		SearchTime: res.Elapsed,
	}
	out.TotalTime = time.Since(totalStart)
	return out, nil
}

// Components returns a job's fold components: hpo.VanillaComponents, or
// the paper's enhanced components over groups drawn from DatasetSeed^0x9e37.
// Grouping is a function of the data alone, so every job on one dataset
// sees the same groups, which the job service builds once per cache scope.
func Components(train *dataset.Dataset, variant Variant, datasetSeed uint64) (hpo.Components, error) {
	if variant != Enhanced {
		return hpo.VanillaComponents(0), nil
	}
	return hpo.EnhancedComponents(train, hpo.EnhancedOptions{}, rng.New(datasetSeed^0x9e37))
}

// RefitStream is the stream a job's final refit draws its seed from,
// Seed^0xf17: the refit is a function of the search, not of the data.
func RefitStream(seed uint64) *rng.RNG { return rng.New(seed ^ 0xf17) }

// Data is a job's data: the named paper dataset (dataset.SpecByName)
// scaled by scale, synthesized from seed and standardized with the
// training split's statistics.
func Data(name string, scale float64, seed uint64) (train, test *dataset.Dataset, err error) {
	spec, err := dataset.SpecByName(name)
	if err != nil {
		return nil, nil, err
	}
	train, test, err = dataset.Synthesize(spec.Scaled(scale), seed)
	if err != nil {
		return nil, nil, err
	}
	dataset.Standardize(train, test)
	return train, test, nil
}

// BaseConfig is a job's non-searched MLP settings: nn.DefaultConfig
// trained for iters epochs from an initial learning rate of 0.02.
func BaseConfig(iters int) nn.Config {
	base := nn.DefaultConfig()
	base.MaxIter = iters
	base.LearningRateInit = 0.02
	return base
}
