package hpo

import (
	"context"
	"slices"
	"time"

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

// trials is the evaluation count of the methods with HonorsTrials: Trials,
// or the paper's random baseline's 10.
func (o RunOptions) trials() int {
	if o.Trials > 0 {
		return o.Trials
	}
	return 10
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

// Method is one registered optimizer: capability metadata plus the
// function that samples, evaluates and picks. Every method stops before
// starting another evaluation once ctx is cancelled and returns ctx's
// error.
type Method struct {
	info MethodInfo
	run  func(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error)
}

// Info returns the method's name, aliases and capabilities.
func (m Method) Info() MethodInfo { return m.info }

// Run optimizes over space with the method's own defaults for every knob
// opts leaves at zero. Zero components select the vanilla ones.
func (m Method) Run(ctx context.Context, space *search.Space, ev Evaluator, comps Components, opts RunOptions) (*Result, error) {
	comps = comps.withDefaults()
	if err := validateRun(space, comps); err != nil {
		return nil, err
	}
	start := time.Now()
	res, err := m.run(ctx, space, ev, comps, opts)
	if err != nil {
		return nil, err
	}
	res.Method = m.info.Name
	res.Evaluations = len(res.Trials)
	res.Elapsed = time.Since(start)
	return res, nil
}

// registry is every optimizer, in canonical-name order. A bandit method's
// schedule is its paper default: SHA halves (η = 2, r_min = 2·K), the
// others keep a third (η = 3, r_min = 4·K).
var registry = []Method{
	{MethodInfo{
		Name:             "asha",
		Description:      "asynchronous successive halving with deterministic prefix-replayed promotions (Li et al. 2018)",
		BudgetAware:      true,
		HonorsWorkers:    true,
		HonorsMaxConfigs: true,
	}, schedule{eta: 3, perFold: 4}.asha},
	{MethodInfo{
		Name:        "bohb",
		Description: "Hyperband brackets with TPE/KDE-proposed configurations (Falkner et al. 2018)",
		BudgetAware: true,
	}, schedule{eta: 3, perFold: 4}.bohb},
	{MethodInfo{
		Name:        "dehb",
		Description: "Hyperband brackets with differential-evolution proposals over the evaluation archive (Awad et al. 2021)",
		BudgetAware: true,
	}, schedule{eta: 3, perFold: 4}.dehb},
	{MethodInfo{
		Name:             "grid",
		Description:      "exhaustive (optionally subsampled) grid, every trial at full budget",
		HonorsMaxConfigs: true,
	}, gridSearch},
	{MethodInfo{
		Name:        "hyperband",
		Aliases:     []string{"hb"},
		Description: "bracket schedule over successive halving, trading breadth at small budgets against depth at large ones",
		BudgetAware: true,
	}, schedule{eta: 3, perFold: 4}.hyperband},
	{MethodInfo{
		Name:             "pasha",
		Description:      "progressive ASHA: the rung ladder grows only while the top ranking is unstable (Bohdal et al. 2023)",
		BudgetAware:      true,
		HonorsMaxConfigs: true,
	}, schedule{eta: 3, perFold: 4}.pasha},
	{MethodInfo{
		Name:         "random",
		Description:  "uniform random sampling, every trial at full budget (Table IV baseline)",
		HonorsTrials: true,
	}, randomSearch},
	{MethodInfo{
		Name:             "sha",
		Description:      "successive halving (Algorithm 1): budget doubles as the candidate set halves",
		BudgetAware:      true,
		HonorsWorkers:    true,
		HonorsMaxConfigs: true,
	}, schedule{eta: 2, perFold: 2}.sha},
	{MethodInfo{
		Name:         "smac",
		Description:  "sequential full-budget Bayesian optimization with a random-forest surrogate (SMAC3-style, §IV-B baseline)",
		HonorsTrials: true,
	}, smac},
	{MethodInfo{
		Name:         "tpe",
		Aliases:      []string{"optuna"},
		Description:  "sequential full-budget TPE (Optuna's default sampler, §IV-B baseline)",
		HonorsTrials: true,
	}, tpe},
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
