package hpo

import (
	"context"
	"fmt"
	"sync"
	"time"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// Evaluator turns a configuration and an instance budget into fold scores.
// Implementations must be safe for concurrent use (ASHA calls Evaluate from
// several goroutines).
type Evaluator interface {
	// Evaluate trains and validates the configuration with the given
	// instance budget, returning one score per cross-validation fold.
	Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error)
	// FullBudget returns the total budget B (the training set size).
	FullBudget() int
}

// CVEvaluator evaluates configurations by k-fold cross-validation of MLPs
// on budget-sized subsets of a training dataset.
type CVEvaluator struct {
	// Train is the training dataset (budgets are drawn from it).
	Train *dataset.Dataset
	// Base provides the non-searched nn.Config fields.
	Base nn.Config
	// Folds builds the cross-validation folds.
	Folds cv.Builder
	// K is the fold count.
	K int
	// Groups are required by group-based fold builders; nil otherwise.
	Groups *grouping.Groups
	// UseF1 scores classification folds by F1 instead of accuracy
	// (the paper reports F1 on the imbalanced datasets).
	UseF1 bool

	// arenas holds one *mat.Arena per Evaluate call in flight, so the
	// folds of an evaluation — and of the next evaluation that worker
	// runs — train in the same memory instead of re-allocating it.
	arenas sync.Pool
}

// NewCVEvaluator wires an evaluator from the shared components.
func NewCVEvaluator(train *dataset.Dataset, base nn.Config, comps Components) *CVEvaluator {
	comps = comps.withDefaults()
	return &CVEvaluator{
		Train:  train,
		Base:   base,
		Folds:  comps.Folds,
		K:      comps.K,
		Groups: comps.Groups,
		UseF1:  comps.UseF1,
	}
}

// FullBudget implements Evaluator.
func (e *CVEvaluator) FullBudget() int { return e.Train.Len() }

// Evaluate implements Evaluator: it builds folds over a budget-sized
// subset, trains one model per fold and returns the per-fold scores.
//
// Each fold's row copies, model and training state live in a pooled
// arena that is reset before the next fold; only the score leaves it.
func (e *CVEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	folds, err := e.Folds.Folds(e.Train, e.Groups, budget, e.K, r.Split(0xf01d))
	if err != nil {
		return nil, fmt.Errorf("hpo: building folds: %w", err)
	}
	nnCfg, err := search.ToNNConfig(cfg, e.Base)
	if err != nil {
		return nil, fmt.Errorf("hpo: materializing config: %w", err)
	}
	ws, _ := e.arenas.Get().(*mat.Arena)
	if ws == nil {
		ws = new(mat.Arena)
	}
	defer e.arenas.Put(ws)
	scores := make([]float64, 0, len(folds))
	for fi, fold := range folds {
		if len(fold.Train) < 2 || len(fold.Val) == 0 {
			continue
		}
		ws.Reset()
		trainSub := e.Train.SelectIn(ws, fold.Train)
		valSub := e.Train.SelectIn(ws, fold.Val)
		foldCfg := nnCfg
		foldCfg.Seed = r.Split(uint64(fi) + 1).Uint64()
		model, err := nn.FitIn(ws, trainSub, foldCfg)
		if err != nil {
			return nil, fmt.Errorf("hpo: training fold %d: %w", fi, err)
		}
		scores = append(scores, e.scoreModel(model, valSub))
	}
	if len(scores) == 0 {
		return nil, fmt.Errorf("hpo: no usable folds for budget %d", budget)
	}
	return scores, nil
}

func (e *CVEvaluator) scoreModel(m *nn.Model, val *dataset.Dataset) float64 {
	if e.UseF1 && e.Train.Kind == dataset.Classification {
		return m.ScoreF1(val)
	}
	return m.Score(val)
}

// FitFull trains the configuration on the complete training set — the
// paper's final step ("the model trained on the full dataset using the
// remained configuration becomes the result").
func (e *CVEvaluator) FitFull(cfg search.Config, seed uint64) (*nn.Model, error) {
	nnCfg, err := search.ToNNConfig(cfg, e.Base)
	if err != nil {
		return nil, err
	}
	nnCfg.Seed = seed
	return nn.Fit(e.Train, nnCfg)
}

// evalTrial runs one evaluation and wraps it in a Trial with timing and the
// aggregated score.
func evalTrial(ev Evaluator, comps Components, cfg search.Config, budget, round int, r *rng.RNG) (Trial, error) {
	start := time.Now()
	foldScores, err := ev.Evaluate(cfg, budget, r)
	if err != nil {
		return Trial{}, err
	}
	gamma := gammaOf(budget, ev.FullBudget())
	t := Trial{
		Config:     cfg,
		Budget:     budget,
		Round:      round,
		FoldScores: foldScores,
		Gamma:      gamma,
		Score:      comps.Scorer.Score(foldScores, gamma),
		Elapsed:    time.Since(start),
	}
	if comps.Observe != nil {
		comps.Observe(t)
	}
	return t, nil
}

// evalSequential is the shared trial loop of the full-budget baselines
// (random, grid): every configuration is evaluated once at full budget,
// ctx is honored between trials, and the best by score is recorded on res.
// Per-trial RNG streams are root.Split(trialTag(0, i)) — identical to the
// historical per-method loops, so results are bit-for-bit unchanged.
func evalSequential(ctx context.Context, ev Evaluator, comps Components, configs []search.Config, root *rng.RNG, res *Result) error {
	budget := ev.FullBudget()
	best := -1
	for i, cfg := range configs {
		if err := ctx.Err(); err != nil {
			return err
		}
		tr, err := evalTrial(ev, comps, cfg, budget, 0, root.Split(trialTag(0, i)))
		if err != nil {
			return err
		}
		res.Trials = append(res.Trials, tr)
		if best < 0 || tr.Score > res.Trials[best].Score {
			best = i
		}
	}
	res.Best = res.Trials[best].Config
	res.BestScore = res.Trials[best].Score
	return nil
}

func gammaOf(budget, full int) float64 {
	if full <= 0 {
		return 100
	}
	if budget > full {
		budget = full
	}
	return float64(budget) / float64(full) * 100
}
