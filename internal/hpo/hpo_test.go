package hpo

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/scoring"
	"enhancedbhpo/internal/search"
)

// fakeEvaluator scores configurations by a planted quality function plus
// budget-dependent noise, so optimizer logic can be tested without training
// networks: larger budgets give cleaner estimates, like real evaluations.
type fakeEvaluator struct {
	space   *search.Space
	full    int
	quality func(c search.Config) float64
	noise   float64
}

func (f *fakeEvaluator) FullBudget() int { return f.full }

func (f *fakeEvaluator) Evaluate(c search.Config, budget int, r *rng.RNG) ([]float64, error) {
	q := f.quality(c)
	scale := f.noise / float64(budget) * float64(f.full)
	scores := make([]float64, 5)
	for i := range scores {
		scores[i] = q + r.Norm()*scale
	}
	return scores, nil
}

// gradedSpace returns a 2-dim space where quality = (i+j) / maxSum, so the
// unique best config is the last index pair.
func gradedSpace() (*search.Space, func(search.Config) float64) {
	s := &search.Space{Dims: []search.Dimension{
		{Name: "a", Values: []any{0, 1, 2, 3}},
		{Name: "b", Values: []any{0, 1, 2, 3}},
	}}
	quality := func(c search.Config) float64 {
		return float64(c.Index(0)+c.Index(1)) / 6.0
	}
	return s, quality
}

func vanComps() Components {
	return Components{Folds: cv.StratifiedKFold{}, K: 5, Scorer: scoring.MeanScorer{}}
}

// method returns the registered method name.
func method(name string) Method {
	m, _ := LookupMethod(name)
	return m
}

// ladder returns the registered bandit method name run on sc, a ladder
// other than its paper default.
func ladder(name string, sc schedule) Method {
	m := method(name)
	m.run = map[string]func(context.Context, *search.Space, Evaluator, Components, RunOptions) (*Result, error){
		"sha": sc.sha, "asha": sc.asha, "pasha": sc.pasha,
		"hyperband": sc.hyperband, "bohb": sc.bohb, "dehb": sc.dehb,
	}[name]
	return m
}

func TestSuccessiveHalvingFindsGoodConfig(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0005}
	res, err := method("sha").Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q := quality(res.Best); q < 5.0/6-1e-9 {
		t.Fatalf("SHA picked quality %v config %s", q, res.Best)
	}
	if res.Method != "sha" {
		t.Errorf("method = %q", res.Method)
	}
	if res.Evaluations != len(res.Trials) {
		t.Error("evaluation count mismatch")
	}
}

func TestSuccessiveHalvingBudgetSchedule(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.001}
	res, err := method("sha").Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Rounds: 16 -> 8 -> 4 -> 2 -> 1 configs; budgets 100, 200, 400, 800.
	countPerRound := map[int]int{}
	budgetPerRound := map[int]int{}
	for _, tr := range res.Trials {
		countPerRound[tr.Round]++
		budgetPerRound[tr.Round] = tr.Budget
	}
	wantCounts := []int{16, 8, 4, 2}
	for round, want := range wantCounts {
		if countPerRound[round] != want {
			t.Errorf("round %d evaluated %d configs, want %d", round, countPerRound[round], want)
		}
	}
	for round := 1; round < len(wantCounts); round++ {
		if budgetPerRound[round] <= budgetPerRound[round-1] {
			t.Errorf("budget did not grow: round %d %d <= round %d %d",
				round, budgetPerRound[round], round-1, budgetPerRound[round-1])
		}
	}
}

// TestSuccessiveHalvingSingleConfig: a start set of one is the selection,
// unevaluated. SHA draws it by the seed alone, from
// rng.New(seed^0xc0de).Split(2).
func TestSuccessiveHalvingSingleConfig(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 100, quality: quality, noise: 0.001}
	res, err := method("sha").Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 3, MaxConfigs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if one := space.SampleN(rng.New(3^0xc0de).Split(2), 1); res.Best.ID() != one[0].ID() {
		t.Fatalf("selected %s, want the start set's %s", res.Best.ID(), one[0].ID())
	}
	if len(res.Trials) != 0 {
		t.Fatalf("unexpected evaluations: %d", len(res.Trials))
	}
}

func TestSuccessiveHalvingEmpty(t *testing.T) {
	_, quality := gradedSpace()
	empty := &search.Space{}
	ev := &fakeEvaluator{space: empty, full: 100, quality: quality}
	if _, err := method("sha").Run(context.Background(), empty, ev, vanComps(), RunOptions{}); err == nil {
		t.Error("empty space accepted")
	}
}

func TestRandomSearchPicksBestOfSampled(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 400, quality: quality, noise: 0.0001}
	res, err := method("random").Run(context.Background(), space, ev, vanComps(), RunOptions{Trials: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 10 {
		t.Fatalf("evaluated %d configs", len(res.Trials))
	}
	// All trials at full budget.
	for _, tr := range res.Trials {
		if tr.Budget != 400 {
			t.Fatalf("random search used budget %d", tr.Budget)
		}
	}
	// Best of the sampled set by quality (noise is tiny).
	bestQ := -1.0
	for _, tr := range res.Trials {
		if q := quality(tr.Config); q > bestQ {
			bestQ = q
		}
	}
	if quality(res.Best) < bestQ-1e-9 {
		t.Fatalf("picked %v, best sampled %v", quality(res.Best), bestQ)
	}
}

func TestHyperbandFindsGoodConfig(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0005}
	res, err := ladder("hyperband", schedule{eta: 3, perFold: 10}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if q := quality(res.Best); q < 4.0/6-1e-9 {
		t.Fatalf("Hyperband picked quality %v", q)
	}
	if len(res.Trials) == 0 {
		t.Fatal("no trials recorded")
	}
	// Brackets explore multiple budgets.
	budgets := map[int]bool{}
	for _, tr := range res.Trials {
		budgets[tr.Budget] = true
	}
	if len(budgets) < 2 {
		t.Fatalf("Hyperband used only %d distinct budgets", len(budgets))
	}
}

func TestBOHBFindsGoodConfigAndLearns(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0005}
	res, err := ladder("bohb", schedule{eta: 3, perFold: 10}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if q := quality(res.Best); q < 4.0/6-1e-9 {
		t.Fatalf("BOHB picked quality %v", q)
	}
	if res.Method != "bohb" {
		t.Errorf("method = %q", res.Method)
	}
}

func TestASHAFindsGoodConfig(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0005}
	res, err := ladder("asha", schedule{eta: 2, perFold: 20}).Run(context.Background(), space, ev, vanComps(), RunOptions{
		MaxConfigs: 16, Workers: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if q := quality(res.Best); q < 4.0/6-1e-9 {
		t.Fatalf("ASHA picked quality %v", q)
	}
	// Every sampled config must have been evaluated at rung 0.
	rung0 := 0
	for _, tr := range res.Trials {
		if tr.Round == 0 {
			rung0++
		}
	}
	if rung0 != 16 {
		t.Fatalf("rung 0 has %d evaluations, want 16", rung0)
	}
	// Promotions happen: some evaluations above rung 0.
	if len(res.Trials) <= rung0 {
		t.Fatal("no promotions recorded")
	}
}

func TestASHASingleWorkerDeterministicBest(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 800, quality: quality, noise: 0.0002}
	asha := ladder("asha", schedule{eta: 2, perFold: 20})
	opts := RunOptions{MaxConfigs: 8, Workers: 1, Seed: 8}
	r1, err := asha.Run(context.Background(), space, ev, vanComps(), opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := asha.Run(context.Background(), space, ev, vanComps(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best.ID() != r2.Best.ID() {
		t.Fatal("single-worker ASHA not deterministic")
	}
}

func TestTopConfigs(t *testing.T) {
	space, _ := gradedSpace()
	configs := space.Enumerate()
	rs := []ranked{
		{cfg: configs[0], score: 0.5, order: 0},
		{cfg: configs[1], score: 0.9, order: 1},
		{cfg: configs[2], score: 0.9, order: 2},
		{cfg: configs[3], score: 0.1, order: 3},
	}
	top := topConfigs(rs, 2)
	if top[0].ID() != configs[1].ID() {
		t.Fatalf("top[0] = %s", top[0].ID())
	}
	if top[1].ID() != configs[2].ID() {
		t.Fatalf("tie-break wrong: top[1] = %s", top[1].ID())
	}
	if got := topConfigs(rs, 99); len(got) != 4 {
		t.Fatalf("overlong k returned %d", len(got))
	}
}

// TestSortRankedTotalOrderNaNLast: for random score vectors holding NaN,
// ±Inf and repeated numbers, sortRanked puts every entry strictly above
// the ones after it, NaNs last, whatever order the entries come in.
func TestSortRankedTotalOrderNaNLast(t *testing.T) {
	space, _ := gradedSpace()
	cfg := space.Enumerate()[0]
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0, 0.5, 1}
	r := rng.New(31)
	for trial := 0; trial < 500; trial++ {
		rs := make([]ranked, 1+r.Intn(12))
		for i := range rs {
			score := pool[r.Intn(len(pool))]
			if r.Intn(4) == 0 {
				score = r.Float64()
			}
			rs[i] = ranked{cfg: cfg, score: score, order: i}
		}
		sorted := sortRanked(rs)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if !sorted[i].better(sorted[j]) || sorted[j].better(sorted[i]) {
					t.Fatalf("%v: entry %d (%v) does not rank strictly above entry %d (%v)", scoresOf(sorted), i, sorted[i].score, j, sorted[j].score)
				}
			}
			if i > 0 && math.IsNaN(sorted[i-1].score) && !math.IsNaN(sorted[i].score) {
				t.Fatalf("%v: a NaN ranks above %v", scoresOf(sorted), sorted[i].score)
			}
		}
		perm := make([]int, len(rs))
		for i := range perm {
			perm[i] = i
		}
		r.Shuffle(perm)
		shuffled := make([]ranked, len(rs))
		for i, p := range perm {
			shuffled[i] = rs[p]
		}
		for i, e := range sortRanked(shuffled) {
			if e.order != sorted[i].order {
				t.Fatalf("%v: sorting a permutation moved entry %d", scoresOf(sorted), i)
			}
		}
	}
}

func scoresOf(rs []ranked) []float64 {
	out := make([]float64, len(rs))
	for i, e := range rs {
		out[i] = e.score
	}
	return out
}

// TestIncumbentSkipsNaN: a full-budget baseline whose first trial scores
// NaN selects the best scored trial, not the diverged one.
func TestIncumbentSkipsNaN(t *testing.T) {
	space := &search.Space{Dims: []search.Dimension{{Name: "x", Values: []any{0, 1, 2}}}}
	configs := space.Enumerate()
	ev := &deterministicEvaluator{full: 100, scores: map[string][]float64{
		configs[0].ID(): {math.NaN(), 0.9},
		configs[1].ID(): {0.5, 0.5},
		configs[2].ID(): {0.4, 0.4},
	}}
	for _, name := range []string{"grid", "random", "smac"} {
		res, err := method(name).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 1, Trials: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Evaluations != 3 || res.Best.ID() != configs[1].ID() || res.BestScore != 0.5 {
			t.Errorf("%s: selected %s at %v after %d evaluations, want %s at 0.5", name, res.Best.ID(), res.BestScore, res.Evaluations, configs[1].ID())
		}
	}
}

func TestEnhancedScorerKeepsHighVarianceEarly(t *testing.T) {
	// Two configs with equal mean: one volatile, one stable. With the mean
	// scorer the pick is arbitrary; with the UCB-β scorer at a small budget
	// the volatile one must rank first.
	space := &search.Space{Dims: []search.Dimension{{Name: "which", Values: []any{"stable", "volatile"}}}}
	stable := space.NewConfig([]int{0})
	volatile := space.NewConfig([]int{1})
	comps := Components{Folds: cv.StratifiedKFold{}, K: 5, Scorer: scoring.UCBScorer{Alpha: 0.1, BetaMax: 10}}
	ev := &deterministicEvaluator{full: 1000, scores: map[string][]float64{
		stable.ID():   {0.8, 0.8, 0.8, 0.8, 0.8},
		volatile.ID(): {0.7, 0.75, 0.8, 0.85, 0.9},
	}}
	tr1, err := evalTrial(ev, comps, stable, 50, 0, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := evalTrial(ev, comps, volatile, 50, 0, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if tr2.Score <= tr1.Score {
		t.Fatalf("volatile %v should outrank stable %v at 5%% budget", tr2.Score, tr1.Score)
	}
	// At full budget the two are (nearly) tied.
	tr1f, _ := evalTrial(ev, comps, stable, 1000, 0, rng.New(3))
	tr2f, _ := evalTrial(ev, comps, volatile, 1000, 0, rng.New(4))
	if diff := tr2f.Score - tr1f.Score; diff > 0.05 {
		t.Fatalf("variance bonus too large at full budget: %v", diff)
	}
}

type deterministicEvaluator struct {
	full   int
	scores map[string][]float64
}

func (d *deterministicEvaluator) FullBudget() int { return d.full }
func (d *deterministicEvaluator) Evaluate(c search.Config, _ int, _ *rng.RNG) ([]float64, error) {
	s, ok := d.scores[c.ID()]
	if !ok {
		return nil, fmt.Errorf("no scores for %s", c.ID())
	}
	return s, nil
}

// tinyDataset builds a small separable classification set for integration
// tests of the real CV evaluator.
func tinyDataset(n int, seed uint64) *dataset.Dataset {
	r := rng.New(seed)
	x := mat.NewDense(n, 2)
	class := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		class[i] = c
		shift := -2.0
		if c == 1 {
			shift = 2.0
		}
		x.Set(i, 0, shift+r.Norm()*0.6)
		x.Set(i, 1, -shift+r.Norm()*0.6)
	}
	return &dataset.Dataset{Name: "tiny", Kind: dataset.Classification, X: x, Class: class, NumClasses: 2}
}

func TestCVEvaluatorIntegration(t *testing.T) {
	train := tinyDataset(120, 1)
	base := nn.DefaultConfig()
	base.MaxIter = 25
	base.LearningRateInit = 0.02
	base.HiddenLayerSizes = []int{6}
	comps := VanillaComponents(5)
	ev := NewCVEvaluator(train, base, comps)
	if ev.FullBudget() != 120 {
		t.Fatalf("full budget %d", ev.FullBudget())
	}
	space, err := search.TableIIISpace(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.NewConfig([]int{0, 2})
	scores, err := ev.Evaluate(cfg, 60, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 5 {
		t.Fatalf("%d fold scores", len(scores))
	}
	for _, s := range scores {
		if s < 0 || s > 1 {
			t.Fatalf("fold accuracy %v out of range", s)
		}
	}
	m, err := ev.FitFull(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc := m.Score(train); acc < 0.9 {
		t.Fatalf("full fit accuracy %v", acc)
	}
}

func TestSHAWithRealEvaluator(t *testing.T) {
	train := tinyDataset(160, 4)
	base := nn.DefaultConfig()
	base.MaxIter = 10
	base.HiddenLayerSizes = []int{4}
	comps := VanillaComponents(5)
	ev := NewCVEvaluator(train, base, comps)
	space, err := search.TableIIISpace(2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := method("sha").Run(context.Background(), space, ev, comps, RunOptions{Seed: 5, MaxConfigs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.ID() == "" {
		t.Fatal("no best config")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

func TestEnhancedComponentsEndToEnd(t *testing.T) {
	train := tinyDataset(200, 6)
	comps, err := EnhancedComponents(train, EnhancedOptions{}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if comps.K != 5 {
		t.Fatalf("K = %d", comps.K)
	}
	if comps.Groups == nil {
		t.Fatal("no groups")
	}
	if comps.Scorer.Name() != "ucb-beta" {
		t.Fatalf("scorer = %s", comps.Scorer.Name())
	}
	base := nn.DefaultConfig()
	base.MaxIter = 10
	base.HiddenLayerSizes = []int{4}
	ev := NewCVEvaluator(train, base, comps)
	space, _ := search.TableIIISpace(2)
	res, err := method("sha").Run(context.Background(), space, ev, comps, RunOptions{Seed: 8, MaxConfigs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.ID() == "" {
		t.Fatal("no best config")
	}
}

func TestVanillaComponentsDefaults(t *testing.T) {
	c := VanillaComponents(0)
	if c.K != 5 || c.Folds == nil || c.Scorer == nil {
		t.Fatalf("bad defaults: %+v", c)
	}
}

func TestTrialsSortedByRound(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 800, quality: quality, noise: 0.001}
	res, err := method("sha").Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(res.Trials, func(i, j int) bool {
		return res.Trials[i].Round < res.Trials[j].Round
	}) {
		t.Fatal("SHA trials out of round order")
	}
}
