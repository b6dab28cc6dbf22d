package hpo

import (
	"context"
	"fmt"
	"runtime/debug"
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
	// Spare, when set, is asked for an idle core before each fold an
	// evaluation could hand away: a non-nil giveBack grants one, for one
	// fold, and is called exactly once when that fold is over. It must not
	// block. The job service sets it from its scheduler's idle evaluation
	// slots and core.Run from a budget of GOMAXPROCS−1 cores; nil trains
	// the folds one after another on the calling goroutine and starts no
	// other.
	Spare func() (giveBack func())

	// arenas holds one *mat.Arena per fold in training, so the folds of an
	// evaluation — and of the next evaluation that worker runs — train in
	// the same memory instead of re-allocating it.
	arenas sync.Pool
	// drawn holds the arenas idle evaluations drew their folds' initial
	// weights into, one per evaluation in flight at most. They are a few
	// hundred kilobytes each, so unlike arenas they are kept across
	// collections: a pooled one, dropped at every GC, would be re-grown
	// from the heap as often.
	drawnMu sync.Mutex
	drawn   []*mat.Arena
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
	}
}

// FullBudget implements Evaluator.
func (e *CVEvaluator) FullBudget() int { return e.Train.Len() }

// Evaluate implements Evaluator: it builds folds over a budget-sized
// subset, trains one model per fold and returns the per-fold scores.
//
// The folds' initial weights are drawn together first, four folds per
// pass (nn.DrawInits), into an arena of drawn that outlives every fold. Each fold's row copies, model and training state live in a
// pooled arena that is reset before the next fold; only the score
// leaves it.
// With Spare set, folds the calling goroutine has not reached train on the
// cores Spare grants, each in an arena of its own. Either way the scores
// are the same bits, the lowest-indexed failing fold decides the error or
// the panic — the one the serial loop stops at — and Evaluate returns, or
// panics, only when every fold it started is over.
func (e *CVEvaluator) Evaluate(cfg search.Config, budget int, r *rng.RNG) ([]float64, error) {
	folds, err := e.Folds.Folds(e.Train, e.Groups, budget, e.K, r.Split(0xf01d))
	if err != nil {
		return nil, fmt.Errorf("hpo: building folds: %w", err)
	}
	nnCfg, err := search.ToNNConfig(cfg, e.Base)
	if err != nil {
		return nil, fmt.Errorf("hpo: materializing config: %w", err)
	}
	seeds := make([]uint64, len(folds))
	for fi := range folds {
		seeds[fi] = r.Split(uint64(fi) + 1).Uint64()
	}
	initWS := e.drawArena()
	initWS.Reset()
	run := &foldRun{e: e, folds: folds, cfg: nnCfg, seeds: seeds, inits: nn.DrawInits(initWS, e.Train, nnCfg, seeds),
		scores: make([]float64, len(folds)), failed: len(folds)}
	ws := e.arena()
	for fi, _ := run.take(false); fi >= 0; fi, _ = run.take(false) {
		run.offer()
		run.train(ws, fi)
	}
	e.arenas.Put(ws)
	run.lent.Wait()
	e.drawnMu.Lock()
	e.drawn = append(e.drawn, initWS)
	e.drawnMu.Unlock()
	if p, ok := run.err.(*foldPanic); ok {
		panic(p)
	}
	if run.err != nil {
		return nil, run.err
	}
	scores := run.scores[:0]
	for fi, fold := range folds {
		if usable(fold) {
			scores = append(scores, run.scores[fi])
		}
	}
	if len(scores) == 0 {
		return nil, fmt.Errorf("hpo: no usable folds for budget %d", budget)
	}
	return scores, nil
}

// usable is the skip rule: a fold too small to train or with nothing to
// validate on contributes no score.
func usable(f cv.Fold) bool { return len(f.Train) >= 2 && len(f.Val) > 0 }

// foldRun is one Evaluate call's folds and who has taken which.
type foldRun struct {
	e      *CVEvaluator
	folds  []cv.Fold
	cfg    nn.Config
	seeds  []uint64  // by fold index: each fold's cfg.Seed
	inits  []nn.Init // by fold index: each fold's initial weights
	scores []float64 // by fold index; each written by the goroutine that trained the fold

	mu     sync.Mutex
	next   int   // folds below it are taken
	failed int   // lowest fold index that failed; len(folds) while none has
	err    error // that fold's error, a *foldPanic if it panicked
	lent   sync.WaitGroup
}

// foldPanic keeps a fold's panic until every fold is over and Evaluate
// re-raises it on its caller's goroutine, where the caller's recover — the
// job service's isolation — can reach it. The stack is the one the panic
// had: the re-raise site's says nothing about the fold.
type foldPanic struct {
	value any
	stack []byte
}

func (p *foldPanic) Error() string {
	return fmt.Sprintf("%v\n\nfold's %s", p.value, p.stack)
}

// take hands out the next usable fold, or -1 once none is left or one has
// failed. Folds are taken in index order, so every fold below a failed one
// has been taken already and the lowest failed index is the fold the serial
// loop stops at. With lend set the fold is for a borrowed core and none is
// taken unless Spare grants one; Spare runs under mu (it does not block) so
// that no core is borrowed for a fold another goroutine takes meanwhile:
// every giveBack follows exactly one fold.
func (fr *foldRun) take(lend bool) (fi int, giveBack func()) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	for fr.next < len(fr.folds) && !usable(fr.folds[fr.next]) {
		fr.next++
	}
	if fr.next == len(fr.folds) || fr.failed < len(fr.folds) {
		return -1, nil
	}
	if lend {
		if giveBack = fr.e.Spare(); giveBack == nil {
			return -1, nil
		}
	}
	fr.next++
	return fr.next - 1, giveBack
}

// offer starts one goroutine per fold nobody has taken and core Spare
// grants. Each trains its one fold in an arena of its own, gives the core
// back — whoever waits for one waits a fold, not an evaluation — and
// offers again; Spare refuses while somebody does wait.
func (fr *foldRun) offer() {
	if fr.e.Spare == nil {
		return
	}
	for fi, giveBack := fr.take(true); giveBack != nil; fi, giveBack = fr.take(true) {
		fr.lent.Add(1) // by a goroutine Evaluate is yet to join, so never from zero during its Wait
		go func(fi int, giveBack func()) {
			defer fr.lent.Done()
			ws := fr.e.arena()
			fr.train(ws, fi)
			fr.e.arenas.Put(ws)
			giveBack()
			fr.offer()
		}(fi, giveBack)
	}
}

// train fits and scores fold fi in ws, and records instead of returning
// how it failed, a panic included: no fold takes its goroutine down.
func (fr *foldRun) train(ws *mat.Arena, fi int) {
	defer func() {
		if v := recover(); v != nil {
			fr.fail(fi, &foldPanic{value: v, stack: debug.Stack()})
		}
	}()
	e, fold := fr.e, fr.folds[fi]
	ws.Reset()
	trainSub := e.Train.SelectIn(ws, fold.Train)
	valSub := e.Train.SelectIn(ws, fold.Val)
	foldCfg := fr.cfg
	foldCfg.Seed = fr.seeds[fi]
	model, err := nn.FitFrom(ws, trainSub, foldCfg, fr.inits[fi])
	if err != nil {
		fr.fail(fi, fmt.Errorf("hpo: training fold %d: %w", fi, err))
		return
	}
	fr.scores[fi] = e.ScoreModel(model, valSub)
}

// fail records fold fi's failure if it is the lowest-indexed so far.
func (fr *foldRun) fail(fi int, err error) {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fi < fr.failed {
		fr.failed, fr.err = fi, err
	}
}

func (e *CVEvaluator) arena() *mat.Arena {
	if ws, _ := e.arenas.Get().(*mat.Arena); ws != nil {
		return ws
	}
	return new(mat.Arena)
}

// drawArena takes an idle arena from drawn, or a new one.
func (e *CVEvaluator) drawArena() *mat.Arena {
	e.drawnMu.Lock()
	defer e.drawnMu.Unlock()
	if k := len(e.drawn); k > 0 {
		ws := e.drawn[k-1]
		e.drawn = e.drawn[:k-1]
		return ws
	}
	return new(mat.Arena)
}

// ScoreModel is the one scoring rule of folds and of the final model: F1
// when UseF1 is set and the task is classification, else Model.Score
// (accuracy, or R² on regression).
func (e *CVEvaluator) ScoreModel(m *nn.Model, val *dataset.Dataset) float64 {
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

// ScoreFull is FitFull scored on test and dropped, for a caller that
// keeps only the score: the model trains in a pooled arena, as a fold
// does, and scores the bits FitFull's model would.
func (e *CVEvaluator) ScoreFull(cfg search.Config, seed uint64, test *dataset.Dataset) (float64, error) {
	nnCfg, err := search.ToNNConfig(cfg, e.Base)
	if err != nil {
		return 0, err
	}
	nnCfg.Seed = seed
	ws := e.arena()
	defer e.arenas.Put(ws)
	ws.Reset()
	model, err := nn.FitIn(ws, e.Train, nnCfg)
	if err != nil {
		return 0, err
	}
	return e.ScoreModel(model, test), nil
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
// (random, grid): one round of evalRound at full budget on one worker, and
// the best-ranked trial picked.
func evalSequential(ctx context.Context, ev Evaluator, comps Components, configs []search.Config, root *rng.RNG) (*Result, error) {
	trials, err := evalRound(ctx, ev, comps, configs, ev.FullBudget(), 0, 1, root)
	if err != nil {
		return nil, err
	}
	var best incumbent
	for _, tr := range trials {
		best.offer(tr.Config, tr.Score)
	}
	return &Result{Trials: trials, Best: best.cfg, BestScore: best.score}, nil
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
