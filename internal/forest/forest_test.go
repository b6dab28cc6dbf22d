package forest

import (
	"math"
	"testing"
	"testing/quick"

	"enhancedbhpo/internal/rng"
)

// makeRegression builds y = 3*x0 - 2*x1 + noise.
func makeRegression(n int, noise float64, seed uint64) (x [][]float64, y []float64) {
	r := rng.New(seed)
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := 0; i < n; i++ {
		row := []float64{r.Norm(), r.Norm(), r.Norm()}
		x[i] = row
		y[i] = 3*row[0] - 2*row[1] + r.Norm()*noise
	}
	return x, y
}

func TestTrainPredictLearnsSignal(t *testing.T) {
	x, y := makeRegression(400, 0.1, 1)
	f, err := Train(x, y, Options{Trees: 30, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.trees) != 30 {
		t.Fatalf("trees = %d", len(f.trees))
	}
	// R² on held-out data must beat a mean predictor decisively.
	xt, yt := makeRegression(200, 0.1, 3)
	var ssRes, ssTot, mean float64
	for _, v := range yt {
		mean += v
	}
	mean /= float64(len(yt))
	for i, row := range xt {
		pred, _ := f.Predict(row)
		d := yt[i] - pred
		ssRes += d * d
		dm := yt[i] - mean
		ssTot += dm * dm
	}
	r2 := 1 - ssRes/ssTot
	if r2 < 0.6 {
		t.Fatalf("forest R² = %v", r2)
	}
}

func TestPredictVarianceNonNegative(t *testing.T) {
	x, y := makeRegression(100, 0.5, 4)
	f, err := Train(x, y, Options{Trees: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g := func(a, b, c float64) bool {
		row := []float64{math.Mod(a, 10), math.Mod(b, 10), math.Mod(c, 10)}
		for _, v := range row {
			if math.IsNaN(v) {
				return true
			}
		}
		_, variance := f.Predict(row)
		return variance >= 0
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestConstantTargets(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	f, err := Train(x, y, Options{Trees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mean, variance := f.Predict([]float64{2.5})
	if mean != 7 {
		t.Fatalf("mean = %v", mean)
	}
	if variance != 0 {
		t.Fatalf("variance = %v", variance)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Options{}); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Train([][]float64{{}}, []float64{1}, Options{}); err == nil {
		t.Error("zero-width rows accepted")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, Options{}); err == nil {
		t.Error("ragged rows accepted")
	}
}

func TestPredictShapePanics(t *testing.T) {
	x, y := makeRegression(50, 0.1, 6)
	f, err := Train(x, y, Options{Trees: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("wrong-width row accepted")
		}
	}()
	f.Predict([]float64{1})
}

func TestDeterministicWithSeed(t *testing.T) {
	x, y := makeRegression(120, 0.2, 8)
	f1, err := Train(x, y, Options{Trees: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	f2, err := Train(x, y, Options{Trees: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, -0.2, 1.1}
	m1, v1 := f1.Predict(probe)
	m2, v2 := f2.Predict(probe)
	if m1 != m2 || v1 != v2 {
		t.Fatal("same seed produced different forests")
	}
}

func TestMinLeafRespected(t *testing.T) {
	// With MinLeaf = n the tree cannot split: prediction is the bootstrap
	// mean, and per-tree depth is 0.
	x, y := makeRegression(40, 0.1, 10)
	f, err := Train(x, y, Options{Trees: 4, MinLeaf: 40, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range f.trees {
		if !tr.leaf {
			t.Fatal("tree split despite MinLeaf = n")
		}
	}
}

func TestVarianceReflectsDisagreement(t *testing.T) {
	// A step function: trees agree deep inside each plateau and disagree
	// near the step, so variance should be higher near the boundary.
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	r := rng.New(12)
	for i := 0; i < n; i++ {
		v := r.Float64()*2 - 1
		x[i] = []float64{v}
		if v > 0 {
			y[i] = 1
		}
	}
	f, err := Train(x, y, Options{Trees: 20, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	_, varBoundary := f.Predict([]float64{0.001})
	_, varPlateau := f.Predict([]float64{0.9})
	if varBoundary < varPlateau {
		t.Fatalf("boundary variance %v < plateau variance %v", varBoundary, varPlateau)
	}
}
