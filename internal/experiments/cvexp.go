package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/metrics"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/scoring"
	"enhancedbhpo/internal/search"
)

// The §IV-C cross-validation experiments share one protocol: evaluate all
// 18 configurations (hidden sizes × activations) with k-fold CV on a
// subset of the training data, recommend the top-scoring configuration,
// then judge the recommendation by (a) the true test quality of the
// recommended configuration and (b) the nDCG of the predicted ranking
// against the true ranking (each configuration's full-data test quality).

// CVDatasets are the six datasets of the paper's Figure 5.
var CVDatasets = []string{"australian", "splice", "a9a", "gisette", "satimage", "usps"}

// cvCell specifies one cell of a §IV-C experiment: one fold-construction
// + scoring strategy at one subset ratio.
type cvCell struct {
	label  string
	x      float64
	folds  cv.Builder
	scorer scoring.Scorer
	// groups, when non-nil, is the §III-A grouping recipe the fold builder
	// needs; cells sharing a recipe share the built groups.
	groups *grouping.Options
	ratio  float64
	// The fold-sampling seed of seed index i is i*seedMul + seedAdd.
	seedMul, seedAdd uint64
}

// cvTruth caches the expensive ground truth for one (dataset, seed): each
// configuration's test quality after training on the full training set.
type cvTruth struct {
	train      *dataset.Dataset
	configs    []search.Config
	testScores []float64
}

// truthCache memoizes ground truths across the CV experiments: Table V,
// Figure 5 and Figure 7 share the same (dataset, seed, settings) truths,
// and recomputing 18 full-data trainings three times would dominate the
// harness runtime. The truths are read-only after construction, so sharing
// is safe.
var truthCache sync.Map // truthKey -> *cvTruth

type truthKey struct {
	name    string
	seed    uint64
	scale   float64
	maxIter int
}

// buildTruth trains every configuration on the full training set once per
// (dataset, seed, settings), memoized across experiments.
func (s Settings) buildTruth(name string, seed uint64) (*cvTruth, error) {
	key := truthKey{name: name, seed: seed, scale: s.Scale, maxIter: s.MaxIter}
	if cached, ok := truthCache.Load(key); ok {
		return cached.(*cvTruth), nil
	}
	space, err := cvSpace()
	if err != nil {
		return nil, err
	}
	train, test, err := core.Data(name, s.Scale, seed)
	if err != nil {
		return nil, err
	}
	configs := space.Enumerate()
	truth := &cvTruth{train: train, configs: configs, testScores: make([]float64, len(configs))}
	base := core.BaseConfig(s.MaxIter)
	err = forEachParallel(len(configs), func(i int) error {
		nnCfg, err := search.ToNNConfig(configs[i], base)
		if err != nil {
			return err
		}
		nnCfg.Seed = seed*1_000_003 + uint64(i)
		model, err := nn.Fit(train, nnCfg)
		if err != nil {
			return fmt.Errorf("truth %s config %d: %w", name, i, err)
		}
		truth.testScores[i] = model.Score(test)
		return nil
	})
	if err != nil {
		return nil, err
	}
	truthCache.Store(key, truth)
	return truth, nil
}

// forEachParallel runs f(0..n-1) on a small worker pool and returns the
// errors joined in index order. Each index is independent and
// deterministic, so parallelism does not change results.
func forEachParallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runCVMethod scores every configuration by 5-fold cross-validation at the
// cell's subset ratio and judges the ranking against the truth: the true
// test quality of the recommended (top-scored) configuration and the nDCG
// of the predicted ranking. groups is nil for cells whose folds need none.
func (s Settings) runCVMethod(truth *cvTruth, c cvCell, groups *grouping.Groups, seed uint64) (testAcc, ndcg float64, err error) {
	const k = 5
	n := truth.train.Len()
	// At least two instances per fold, at most the whole training set.
	budget := min(max(int(float64(n)*c.ratio), 2*k), n)
	gamma := scoring.Gamma(budget, n)
	base := core.BaseConfig(s.MaxIter)
	r := rng.New(seed ^ 0xcfe0)
	predScores := make([]float64, len(truth.configs))
	ev := &hpo.CVEvaluator{Train: truth.train, Base: base, Folds: c.folds, K: k, Groups: groups}
	err = forEachParallel(len(truth.configs), func(i int) error {
		foldScores, err := ev.Evaluate(truth.configs[i], budget, r.Split(uint64(i)+1))
		if err != nil {
			return fmt.Errorf("cv config %d: %w", i, err)
		}
		predScores[i] = c.scorer.Score(foldScores, gamma)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	best := 0
	for i, v := range predScores {
		if v > predScores[best] {
			best = i
		}
	}
	return truth.testScores[best], metrics.NDCG(predScores, truth.testScores), nil
}

// cvSpace is the §IV-C configuration space: hidden sizes × activations
// (6·3 = 18 configurations).
func cvSpace() (*search.Space, error) { return search.TableIIISpace(2) }

// cvGroupSeed is the grouping seed of the paper's CV experiments: it
// follows the data seed (seed index + 1), so groups change with the data.
func cvGroupSeed(seed int) uint64 { return (uint64(seed) + 1) ^ 0x9109 }

// cvSweep lays out methods × ratios as cells keyed (method name, ratio),
// with the fold-sampling seed index*seedMul + ratio*100 that Table V,
// Figure 5 and Figure 7 share up to the multiplier.
func cvSweep(methods []cvCell, ratios []float64, seedMul uint64) []cvCell {
	var cells []cvCell
	for _, c := range methods {
		for _, ratio := range ratios {
			c.x, c.ratio = ratio, ratio
			c.seedMul, c.seedAdd = seedMul, uint64(ratio*100)
			cells = append(cells, c)
		}
	}
	return cells
}
