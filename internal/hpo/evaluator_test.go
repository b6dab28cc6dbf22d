package hpo

import (
	"strings"
	"testing"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/search"
)

// imbalancedDataset builds a 95/5 binary problem where accuracy is a
// misleading metric and F1 is informative.
func imbalancedDataset(n int, seed uint64) *dataset.Dataset {
	r := rng.New(seed)
	x := mat.NewDense(n, 2)
	class := make([]int, n)
	for i := 0; i < n; i++ {
		c := 0
		if i%20 == 0 {
			c = 1
		}
		class[i] = c
		shift := -1.5
		if c == 1 {
			shift = 1.5
		}
		x.Set(i, 0, shift+r.Norm()*0.5)
		x.Set(i, 1, shift+r.Norm()*0.5)
	}
	return &dataset.Dataset{Name: "imb", Kind: dataset.Classification, X: x, Class: class, NumClasses: 2}
}

func TestCVEvaluatorUseF1(t *testing.T) {
	train := imbalancedDataset(400, 1)
	base := nn.DefaultConfig()
	base.MaxIter = 15
	base.LearningRateInit = 0.02
	base.HiddenLayerSizes = []int{4}
	space, err := search.TableIIISpace(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := space.NewConfig([]int{0})
	comps := VanillaComponents(5)
	acc := NewCVEvaluator(train, base, comps)
	f1 := NewCVEvaluator(train, base, comps)
	f1.UseF1 = true
	accScores, err := acc.Evaluate(cfg, 200, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	f1Scores, err := f1.Evaluate(cfg, 200, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	// On a 95/5 problem any accuracy is >= 0.9 once the majority class is
	// learned, while F1 of the rare class is structurally lower or equal.
	for i := range accScores {
		if f1Scores[i] > accScores[i]+1e-9 && accScores[i] > 0.9 {
			t.Fatalf("fold %d: F1 %v above accuracy %v on an imbalanced set", i, f1Scores[i], accScores[i])
		}
	}
	// ScoreModel, the rule the folds above used, is the one a final
	// model is scored by too: F1 on classification when UseF1 is set,
	// else accuracy — and R² on regression either way.
	model, err := f1.FitFull(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f1.ScoreModel(model, train), model.ScoreF1(train); got != want {
		t.Errorf("UseF1 classification: ScoreModel %v, want F1 %v", got, want)
	}
	if got, want := acc.ScoreModel(model, train), model.Score(train); got != want {
		t.Errorf("classification: ScoreModel %v, want accuracy %v", got, want)
	}
	reg := NewCVEvaluator(tinyRegression(160, 4), base, comps)
	reg.UseF1 = true
	if model, err = reg.FitFull(cfg, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := reg.ScoreModel(model, reg.Train), model.Score(reg.Train); got != want {
		t.Errorf("UseF1 regression: ScoreModel %v, want R² %v", got, want)
	}
}

func TestCVEvaluatorBadBudget(t *testing.T) {
	train := tinyDataset(8, 3)
	base := nn.DefaultConfig()
	base.MaxIter = 5
	comps := VanillaComponents(5)
	ev := NewCVEvaluator(train, base, comps)
	space, _ := search.TableIIISpace(1)
	// 8 instances cannot support 5 folds (needs >= 10).
	if _, err := ev.Evaluate(space.NewConfig([]int{0}), 8, rng.New(4)); err == nil {
		t.Fatal("impossible fold count accepted")
	} else if !strings.Contains(err.Error(), "folds") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCVEvaluatorGroupFoldsRequireGroups(t *testing.T) {
	train := tinyDataset(100, 5)
	base := nn.DefaultConfig()
	base.MaxIter = 5
	ev := &CVEvaluator{Train: train, Base: base, Folds: cv.GroupFolds{KGen: 3, KSpe: 2}, K: 5}
	space, _ := search.TableIIISpace(1)
	if _, err := ev.Evaluate(space.NewConfig([]int{0}), 50, rng.New(6)); err == nil {
		t.Fatal("group folds without groups accepted")
	}
}

func TestCVEvaluatorDeterministic(t *testing.T) {
	train := tinyDataset(120, 7)
	base := nn.DefaultConfig()
	base.MaxIter = 8
	comps := VanillaComponents(5)
	ev := NewCVEvaluator(train, base, comps)
	space, _ := search.TableIIISpace(2)
	cfg := space.NewConfig([]int{2, 1})
	s1, err := ev.Evaluate(cfg, 60, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ev.Evaluate(cfg, 60, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("fold %d scores differ across identical seeds", i)
		}
	}
}

func TestGammaOf(t *testing.T) {
	if got := gammaOf(50, 100); got != 50 {
		t.Fatalf("gammaOf = %v", got)
	}
	if got := gammaOf(200, 100); got != 100 {
		t.Fatalf("overshoot gammaOf = %v", got)
	}
	if got := gammaOf(10, 0); got != 100 {
		t.Fatalf("zero-full gammaOf = %v", got)
	}
}
