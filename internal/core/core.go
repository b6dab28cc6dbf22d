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
	// K is the fold count for vanilla components (enhanced components
	// derive it from KGen+KSpe). 0 selects 5.
	K int
	// Enhanced tunes the paper's components when Variant == Enhanced.
	Enhanced hpo.EnhancedOptions
	// UseF1 scores classification folds (and the final model) by F1.
	UseF1 bool
	// RunOptions tune the method: Seed also seeds grouping and the final
	// refit, so it makes the whole run reproducible.
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
	root := rng.New(opts.Seed ^ 0xc0de)

	var comps hpo.Components
	var setup time.Duration
	if opts.Variant == Enhanced {
		setupStart := time.Now()
		c, err := hpo.EnhancedComponents(train, opts.Enhanced, root.Split(1))
		if err != nil {
			return nil, fmt.Errorf("core: building enhanced components: %w", err)
		}
		comps = c
		setup = time.Since(setupStart)
	} else {
		comps = hpo.VanillaComponents(opts.K)
	}
	ev := hpo.NewCVEvaluator(train, base, comps)
	ev.UseF1 = opts.UseF1

	// Dispatch through the hpo registry, the table the job service resolves
	// methods in too: given equal components and seed, a CLI run and a
	// served job run the same optimizer, and SHA starts from the same
	// configurations. Their scores can still differ, because the components
	// are not equal: grouping and the refit here draw from root's splits 1
	// and 3, where the service uses DatasetSeed^0x9e37 and Seed^0xf17
	// (ROADMAP.md, "The paper's table is the service's workload").
	method, ok := hpo.LookupMethod(opts.Method)
	if !ok {
		return nil, fmt.Errorf("core: unknown method %q", opts.Method)
	}
	res, err := method.Run(ctx, opts.Space, ev, comps, opts.RunOptions)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", method.Info().Name, err)
	}

	model, err := ev.FitFull(res.Best, root.Split(3).Uint64())
	if err != nil {
		return nil, fmt.Errorf("core: refitting best configuration: %w", err)
	}
	out := &Outcome{
		Search:     res,
		Model:      model,
		SetupTime:  setup,
		SearchTime: res.Elapsed,
	}
	if opts.UseF1 && train.Kind == dataset.Classification {
		out.TrainScore = model.ScoreF1(train)
		out.TestScore = model.ScoreF1(test)
	} else {
		out.TrainScore = model.Score(train)
		out.TestScore = model.Score(test)
	}
	out.TotalTime = time.Since(totalStart)
	return out, nil
}
