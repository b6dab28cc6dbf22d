package hpo

import (
	"context"
	"slices"

	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// RunOptions is the one option surface of the registry: every method reads
// the knobs it honors and leaves the rest at its own defaults. A zero knob
// selects the method default.
type RunOptions struct {
	// Seed drives sampling and training.
	Seed uint64
	// Workers is the evaluation-goroutine count for methods with
	// HonorsWorkers.
	Workers int
	// MaxConfigs caps the configurations considered by methods with
	// HonorsMaxConfigs: SHA's start set, ASHA's and PASHA's samples, the
	// grid. 0 selects the method default (or the whole space).
	MaxConfigs int
	// Trials is the evaluation count for full-budget methods with
	// HonorsTrials.
	Trials int
	// MaxBrackets caps the brackets run by the methods with a Hyperband
	// schedule (hyperband, bohb, dehb); 0 runs all of them.
	MaxBrackets int
}

// MethodInfo describes a registered optimizer: its canonical name, accepted
// aliases, and which shared RunOptions knobs it honors. Callers that accept
// user-supplied options (the job service) use the capability flags to
// reject settings a method would silently ignore.
type MethodInfo struct {
	// Name is the canonical method name ("sha", "bohb", ...).
	Name string
	// Aliases are alternative accepted names ("hb" for hyperband,
	// "optuna" for tpe).
	Aliases []string
	// Description is a one-line summary for discovery endpoints.
	Description string
	// BudgetAware marks bandit methods that allocate partial budgets;
	// false for the full-budget baselines (random, grid, SMAC, TPE).
	BudgetAware bool
	// HonorsWorkers: RunOptions.Workers controls evaluation concurrency.
	HonorsWorkers bool
	// HonorsMaxConfigs: RunOptions.MaxConfigs caps the configurations
	// considered.
	HonorsMaxConfigs bool
	// HonorsTrials: RunOptions.Trials sets the evaluation count.
	HonorsTrials bool
}

// Method is one registered optimizer: capability metadata plus a
// context-aware entry point. Every method stops before starting another
// evaluation once ctx is cancelled and returns ctx's error.
type Method struct {
	info MethodInfo
	run  func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error)
}

// Info returns the method's name, aliases and capabilities.
func (m Method) Info() MethodInfo { return m.info }

// Run optimizes over space with the method's own defaults for every knob
// opts leaves at zero.
func (m Method) Run(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
	return m.run(ctx, space, ev, comps, opts)
}

// registry is every optimizer, in canonical-name order.
var registry = []Method{
	{MethodInfo{
		Name:             "asha",
		Description:      "asynchronous successive halving with deterministic prefix-replayed promotions (Li et al. 2018)",
		BudgetAware:      true,
		HonorsWorkers:    true,
		HonorsMaxConfigs: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return ASHA(ctx, space, ev, comps, ASHAOptions{Seed: o.Seed, Workers: o.Workers, MaxConfigs: o.MaxConfigs})
	}},
	{MethodInfo{
		Name:        "bohb",
		Description: "Hyperband brackets with TPE/KDE-proposed configurations (Falkner et al. 2018)",
		BudgetAware: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return BOHB(ctx, space, ev, comps, BOHBOptions{Hyperband: HyperbandOptions{Seed: o.Seed, MaxBrackets: o.MaxBrackets}})
	}},
	{MethodInfo{
		Name:        "dehb",
		Description: "Hyperband brackets with differential-evolution proposals over the evaluation archive (Awad et al. 2021)",
		BudgetAware: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return DEHB(ctx, space, ev, comps, DEHBOptions{Hyperband: HyperbandOptions{Seed: o.Seed, MaxBrackets: o.MaxBrackets}})
	}},
	{MethodInfo{
		Name:             "grid",
		Description:      "exhaustive (optionally subsampled) grid, every trial at full budget",
		HonorsMaxConfigs: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return GridSearch(ctx, space, ev, comps, GridSearchOptions{Seed: o.Seed, MaxConfigs: o.MaxConfigs})
	}},
	{MethodInfo{
		Name:        "hyperband",
		Aliases:     []string{"hb"},
		Description: "bracket schedule over successive halving, trading breadth at small budgets against depth at large ones",
		BudgetAware: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return Hyperband(ctx, space, ev, comps, HyperbandOptions{Seed: o.Seed, MaxBrackets: o.MaxBrackets})
	}},
	{MethodInfo{
		Name:             "pasha",
		Description:      "progressive ASHA: the rung ladder grows only while the top ranking is unstable (Bohdal et al. 2023)",
		BudgetAware:      true,
		HonorsMaxConfigs: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return PASHA(ctx, space, ev, comps, PASHAOptions{Seed: o.Seed, MaxConfigs: o.MaxConfigs})
	}},
	{MethodInfo{
		Name:         "random",
		Description:  "uniform random sampling, every trial at full budget (Table IV baseline)",
		HonorsTrials: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return RandomSearch(ctx, space, ev, comps, RandomSearchOptions{Seed: o.Seed, N: o.Trials})
	}},
	{MethodInfo{
		Name:             "sha",
		Description:      "successive halving (Algorithm 1): budget doubles as the candidate set halves",
		BudgetAware:      true,
		HonorsWorkers:    true,
		HonorsMaxConfigs: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		configs := space.Enumerate()
		if o.MaxConfigs > 0 && o.MaxConfigs < len(configs) {
			// The start set depends on the seed alone, so a CLI run and a
			// served job with one seed start from the same configurations.
			configs = space.SampleN(rng.New(o.Seed^0xc0de).Split(2), o.MaxConfigs)
		}
		return SuccessiveHalving(ctx, configs, ev, comps, SHAOptions{Seed: o.Seed, Workers: o.Workers})
	}},
	{MethodInfo{
		Name:         "smac",
		Description:  "sequential full-budget Bayesian optimization with a random-forest surrogate (SMAC3-style, §IV-B baseline)",
		HonorsTrials: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return SMAC(ctx, space, ev, comps, SMACOptions{Seed: o.Seed, N: o.Trials})
	}},
	{MethodInfo{
		Name:         "tpe",
		Aliases:      []string{"optuna"},
		Description:  "sequential full-budget TPE (Optuna's default sampler, §IV-B baseline)",
		HonorsTrials: true,
	}, func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, o RunOptions) (*Result, error) {
		return TPE(ctx, space, ev, comps, TPEOptions{Seed: o.Seed, N: o.Trials})
	}},
}

// LookupMethod resolves a method by canonical name or alias.
func LookupMethod(name string) (Method, bool) {
	for _, m := range registry {
		if m.info.Name == name || slices.Contains(m.info.Aliases, name) {
			return m, true
		}
	}
	return Method{}, false
}

// CanonicalName resolves a method name or alias to the canonical name.
func CanonicalName(name string) (string, bool) {
	m, ok := LookupMethod(name)
	return m.info.Name, ok
}

// MethodNames returns the sorted canonical names of every registered
// method.
func MethodNames() []string {
	names := make([]string, len(registry))
	for i, m := range registry {
		names[i] = m.info.Name
	}
	return names
}

// Methods returns every registered method's info, sorted by canonical name.
func Methods() []MethodInfo {
	infos := make([]MethodInfo, len(registry))
	for i, m := range registry {
		infos[i] = m.info
	}
	return infos
}
