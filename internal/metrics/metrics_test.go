package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]int{1, 0, 1, 1}, []int{1, 0, 0, 1}); got != 0.75 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(nil, nil) != 0 {
		t.Fatal("empty accuracy != 0")
	}
	assertPanics(t, "length mismatch", func() { Accuracy([]int{1}, []int{1, 2}) })
}

func TestAccuracyBounds(t *testing.T) {
	f := func(seed int64) bool {
		pred := []int{int(seed) & 1, int(seed>>1) & 1, int(seed>>2) & 1}
		truth := []int{0, 1, 0}
		a := Accuracy(pred, truth)
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm := ConfusionMatrix([]int{0, 1, 1, 2}, []int{0, 1, 2, 2}, 3)
	if cm[0][0] != 1 || cm[1][1] != 1 || cm[2][1] != 1 || cm[2][2] != 1 {
		t.Fatalf("confusion matrix wrong: %v", cm)
	}
	assertPanics(t, "label out of range", func() {
		ConfusionMatrix([]int{5}, []int{0}, 3)
	})
}

func TestF1Binary(t *testing.T) {
	// tp=2, fp=1, fn=1 -> precision 2/3, recall 2/3, F1 = 2/3.
	pred := []int{1, 1, 1, 0, 0}
	truth := []int{1, 1, 0, 1, 0}
	if got := F1Binary(pred, truth); !almostEq(got, 2.0/3) {
		t.Fatalf("F1 = %v", got)
	}
	if F1Binary([]int{0, 0}, []int{1, 1}) != 0 {
		t.Fatal("no-TP F1 should be 0")
	}
	if got := F1Binary([]int{1, 1}, []int{1, 1}); got != 1 {
		t.Fatalf("perfect F1 = %v", got)
	}
}

func TestF1Macro(t *testing.T) {
	pred := []int{0, 1, 2}
	truth := []int{0, 1, 2}
	if got := F1Macro(pred, truth, 3); got != 1 {
		t.Fatalf("perfect macro F1 = %v", got)
	}
	// Class 2 never predicted or true; macro over 3 classes dilutes.
	pred2 := []int{0, 1}
	truth2 := []int{0, 1}
	if got := F1Macro(pred2, truth2, 3); !almostEq(got, 2.0/3) {
		t.Fatalf("macro F1 with absent class = %v", got)
	}
}

func TestR2(t *testing.T) {
	truth := []float64{1, 2, 3, 4}
	if got := R2(truth, truth); got != 1 {
		t.Fatalf("perfect R2 = %v", got)
	}
	meanPred := []float64{2.5, 2.5, 2.5, 2.5}
	if got := R2(meanPred, truth); got != 0 {
		t.Fatalf("mean-predictor R2 = %v", got)
	}
	if got := R2([]float64{4, 3, 2, 1}, truth); got >= 0 {
		t.Fatalf("anti-predictor R2 = %v, want negative", got)
	}
	if R2([]float64{1}, []float64{1}) != 0 {
		t.Fatal("constant truth should give 0")
	}
}

func TestNDCGPerfectRanking(t *testing.T) {
	rel := []float64{0.9, 0.5, 0.7, 0.3}
	if got := NDCG(rel, rel); !almostEq(got, 1) {
		t.Fatalf("NDCG of perfect ranking = %v", got)
	}
}

func TestNDCGWorstBelowBest(t *testing.T) {
	rel := []float64{0.1, 0.4, 0.9, 0.6}
	inverse := []float64{0.9, 0.6, 0.1, 0.4}
	best := NDCG(rel, rel)
	worst := NDCG(inverse, rel)
	if worst >= best {
		t.Fatalf("inverse ranking NDCG %v >= perfect %v", worst, best)
	}
	if worst < 0 || worst > 1 {
		t.Fatalf("NDCG %v out of [0,1]", worst)
	}
}

func TestNDCGBounds(t *testing.T) {
	f := func(a, b [6]float64) bool {
		pred := make([]float64, 6)
		rel := make([]float64, 6)
		for i := range pred {
			pred[i] = math.Abs(math.Mod(a[i], 10))
			rel[i] = math.Abs(math.Mod(b[i], 10))
			if math.IsNaN(pred[i]) || math.IsNaN(rel[i]) {
				return true
			}
		}
		v := NDCG(pred, rel)
		return v >= 0 && v <= 1+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNDCGAt(t *testing.T) {
	rel := []float64{1, 0.5, 0.25, 0}
	if got := NDCGAt(rel, rel, 2); !almostEq(got, 1) {
		t.Fatalf("NDCG@2 of perfect ranking = %v", got)
	}
	if NDCGAt(rel, rel, 0) != 0 {
		t.Fatal("NDCG@0 != 0")
	}
	if got := NDCGAt(rel, rel, 100); !almostEq(got, 1) {
		t.Fatalf("NDCG@k>n clamps: %v", got)
	}
	if NDCG(nil, nil) != 0 {
		t.Fatal("empty NDCG != 0")
	}
}

func TestNDCGZeroRelevance(t *testing.T) {
	if got := NDCG([]float64{1, 2}, []float64{0, 0}); got != 0 {
		t.Fatalf("all-zero relevance NDCG = %v", got)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
