// Package hpo implements the bandit-based hyperparameter optimization
// framework of the paper and the methods it is compared with. Six bandit
// methods allocate partial budgets — Successive Halving, Hyperband, BOHB,
// ASHA, PASHA and DEHB — and four baselines run every trial at full budget:
// random search, grid search, SMAC and TPE. All ten are reached through
// one registry (LookupMethod, Methods) and tuned by one RunOptions: there
// is no per-method entry point or option type, and each bandit method runs
// its paper's η and r_min. Each method is parameterized by three pluggable
// components — the fold builder, the configuration scorer and the
// (optional) instance groups — so the paper's enhanced variants ("SHA+",
// "HB+", "BOHB+") are the same algorithms run with the group-based folds
// (cv.GroupFolds), the variance/size-aware scorer (scoring.UCBScorer) and
// pre-built groups (grouping.Build), while the vanilla variants use
// stratified folds and the plain mean.
//
// The budget unit is the instance, following the paper: a configuration
// evaluated with budget b trains on cross-validation folds drawn from a
// b-sized subset of the training data.
package hpo

import (
	"fmt"
	"math"
	"sort"
	"time"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/scoring"
	"enhancedbhpo/internal/search"
)

// Components bundles the pluggable pieces shared by every bandit method.
type Components struct {
	// Folds builds cross-validation folds from a budget-sized subset.
	Folds cv.Builder
	// K is the total number of folds per evaluation (the paper uses 5).
	K int
	// Scorer aggregates fold scores into the configuration's ranking score.
	Scorer scoring.Scorer
	// Groups are the §III-A instance groups; nil for vanilla components.
	Groups *grouping.Groups
	// Observe, when non-nil, receives every completed Trial, in the order a
	// single worker produces them: an optimizer with concurrent workers
	// holds a finished trial back until every trial before it is in, and
	// may call Observe from any of its goroutines, one call at a time. It
	// exists so a serving layer can report live anytime curves while a run
	// is still in flight.
	Observe func(Trial)
}

// WithObserver returns a copy of the components that reports every
// completed trial to fn (see Observe for the concurrency contract).
func (c Components) WithObserver(fn func(Trial)) Components {
	c.Observe = fn
	return c
}

func (c Components) withDefaults() Components {
	if c.Folds == nil {
		c.Folds = cv.StratifiedKFold{}
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Scorer == nil {
		c.Scorer = scoring.MeanScorer{}
	}
	return c
}

// Trial records one configuration evaluation.
type Trial struct {
	// Config is the evaluated configuration.
	Config search.Config
	// Budget is the instance budget b_t used.
	Budget int
	// Round is the halving iteration (or rung) the evaluation belongs to.
	Round int
	// FoldScores are the per-fold validation scores.
	FoldScores []float64
	// Score is the aggregated ranking score (scorer output).
	Score float64
	// Gamma is the sampling ratio in percent used for the score.
	Gamma float64
	// Elapsed is the wall time of this evaluation.
	Elapsed time.Duration
}

// Result is the outcome of one optimization run.
type Result struct {
	// Method names the optimizer that produced the result.
	Method string
	// Best is the selected configuration τ*.
	Best search.Config
	// BestScore is τ*'s final aggregated score.
	BestScore float64
	// Trials is the full evaluation history.
	Trials []Trial
	// Evaluations is len(Trials).
	Evaluations int
	// Elapsed is the total optimization wall time (excluding any final
	// full-data refit done by the caller).
	Elapsed time.Duration
}

// ranked pairs a configuration with its score for halving.
type ranked struct {
	cfg   search.Config
	score float64
	order int // arrival order or sample index, for deterministic tie-breaks
}

// Better reports whether score a ranks above score b: a higher number
// does, and any number ranks above NaN. Two NaNs tie, as two equal numbers
// do, so ranking by Better is a total order with NaN last — a diverged
// evaluation is never picked over one that scored.
func Better(a, b float64) bool {
	if math.IsNaN(b) {
		return !math.IsNaN(a)
	}
	return a > b
}

// better is every optimizer's one ranking rule: a ranks above b on a
// Better score, and on a tie on a lower order.
func (a ranked) better(b ranked) bool {
	switch {
	case Better(a.score, b.score):
		return true
	case Better(b.score, a.score):
		return false
	}
	return a.order < b.order
}

// incumbent keeps the best-ranked of the configurations offered to it,
// the earlier offer winning a tie.
type incumbent struct {
	ranked
	offers int
}

// offer ranks cfg, scored score, against the incumbent.
func (in *incumbent) offer(cfg search.Config, score float64) {
	c := ranked{cfg: cfg, score: score, order: in.offers}
	if in.offers == 0 || c.better(in.ranked) {
		in.ranked = c
	}
	in.offers++
}

// sortRanked returns a copy of rs, best first.
func sortRanked(rs []ranked) []ranked {
	sorted := append([]ranked(nil), rs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].better(sorted[j]) })
	return sorted
}

// topConfigs returns the k best-ranked configurations.
func topConfigs(rs []ranked, k int) []search.Config {
	sorted := sortRanked(rs)
	out := make([]search.Config, min(k, len(sorted)))
	for i := range out {
		out[i] = sorted[i].cfg
	}
	return out
}

// schedule is the budget ladder of the bandit methods: a rung keeps 1/eta
// of the configurations below it, and none trains on fewer than
// r_min = perFold·K instances, perFold per cross-validation fold.
type schedule struct {
	eta, perFold int
}

// rMin is the smallest per-configuration budget for k folds.
func (sc schedule) rMin(k int) int { return sc.perFold * k }

// rungs lays out ASHA's and PASHA's ladder: rung r trains at
// min(r_min·η^r, full), up to the first rung at full budget, and rung 0
// starts maxConfigs configurations drawn from r — min(27, |space|) when
// maxConfigs is 0.
func (sc schedule) rungs(space *search.Space, k, full, maxConfigs int, r *rng.RNG) (budgets []int, configs []search.Config) {
	for b := sc.rMin(k); b < full; b *= sc.eta {
		budgets = append(budgets, b)
	}
	budgets = append(budgets, full)
	if maxConfigs <= 0 {
		maxConfigs = min(27, space.Size())
	}
	return budgets, space.SampleN(r, maxConfigs)
}

// validateRun checks the shared preconditions of the optimizers.
func validateRun(space *search.Space, comps Components) error {
	if space == nil {
		return fmt.Errorf("hpo: nil space")
	}
	if err := space.Validate(); err != nil {
		return err
	}
	if comps.K < 2 {
		return fmt.Errorf("hpo: need at least 2 folds, got %d", comps.K)
	}
	return nil
}
