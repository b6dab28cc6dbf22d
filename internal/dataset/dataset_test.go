package dataset

import (
	"math"
	"testing"
	"testing/quick"

	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

func smallClassification() *Dataset {
	x := mat.NewDenseData(6, 2, []float64{
		0, 0, 1, 1, 2, 2,
		10, 10, 11, 11, 12, 12,
	})
	return &Dataset{
		Name: "tiny", Kind: Classification, X: x,
		Class: []int{0, 0, 0, 1, 1, 1}, NumClasses: 2,
	}
}

func TestValidate(t *testing.T) {
	d := smallClassification()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := smallClassification()
	bad.Class = bad.Class[:3]
	if err := bad.Validate(); err == nil {
		t.Error("expected label-count error")
	}
	bad2 := smallClassification()
	bad2.Class[0] = 9
	if err := bad2.Validate(); err == nil {
		t.Error("expected label-range error")
	}
	bad3 := smallClassification()
	bad3.NumClasses = 1
	if err := bad3.Validate(); err == nil {
		t.Error("expected class-count error")
	}
	reg := &Dataset{Name: "r", Kind: Regression, X: mat.NewDense(2, 1), Target: []float64{1, 2}}
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	reg.Target = reg.Target[:1]
	if err := reg.Validate(); err == nil {
		t.Error("expected target-count error")
	}
}

func TestSelect(t *testing.T) {
	d := smallClassification()
	sub := d.Select([]int{5, 0, 3})
	if sub.Len() != 3 {
		t.Fatalf("len = %d", sub.Len())
	}
	if sub.Class[0] != 1 || sub.Class[1] != 0 || sub.Class[2] != 1 {
		t.Fatalf("classes = %v", sub.Class)
	}
	if sub.X.At(0, 0) != 12 {
		t.Fatalf("row copy wrong: %v", sub.X.Row(0))
	}
	// Mutating the subset must not touch the original.
	sub.X.Set(0, 0, -1)
	if d.X.At(5, 0) != 12 {
		t.Fatal("Select aliases original storage")
	}
	assertPanics(t, "out of range", func() { d.Select([]int{99}) })
	assertPanics(t, "empty", func() { d.Select(nil) })
}

// ClassCounts returns the number of instances per class.
// It panics for regression datasets.
func (d *Dataset) ClassCounts() []int {
	if d.Kind != Classification {
		panic("dataset: ClassCounts on regression dataset")
	}
	counts := make([]int, d.NumClasses)
	for _, c := range d.Class {
		counts[c]++
	}
	return counts
}

// MustSynthesize is Synthesize that panics on error, for known-good specs.
func MustSynthesize(spec Spec, seed uint64) (train, test *Dataset) {
	train, test, err := Synthesize(spec, seed)
	if err != nil {
		panic(err)
	}
	return train, test
}

func TestClassCountsAndIndices(t *testing.T) {
	d := smallClassification()
	counts := d.ClassCounts()
	if counts[0] != 3 || counts[1] != 3 {
		t.Fatalf("counts = %v", counts)
	}
	idx := d.ClassIndices()
	if len(idx[0]) != 3 || idx[1][0] != 3 {
		t.Fatalf("indices = %v", idx)
	}
	reg := &Dataset{Kind: Regression, X: mat.NewDense(2, 1), Target: []float64{1, 2}}
	assertPanics(t, "regression counts", func() { reg.ClassCounts() })
	assertPanics(t, "regression indices", func() { reg.ClassIndices() })
}

func TestTrainTestSplitStratified(t *testing.T) {
	spec, err := SpecByName("satimage")
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := Synthesize(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	train, test := full.TrainTestSplit(r, 0.2)
	if train.Len()+test.Len() != full.Len() {
		t.Fatalf("split sizes %d + %d != %d", train.Len(), test.Len(), full.Len())
	}
	wantTest := float64(full.Len()) * 0.2
	if math.Abs(float64(test.Len())-wantTest) > wantTest*0.2+float64(full.NumClasses) {
		t.Fatalf("test size %d far from %v", test.Len(), wantTest)
	}
	// Class proportions approximately preserved.
	fullCounts := full.ClassCounts()
	trainCounts := train.ClassCounts()
	for c := range fullCounts {
		fullFrac := float64(fullCounts[c]) / float64(full.Len())
		trainFrac := float64(trainCounts[c]) / float64(train.Len())
		if math.Abs(fullFrac-trainFrac) > 0.03 {
			t.Fatalf("class %d fraction drifted: %v vs %v", c, fullFrac, trainFrac)
		}
	}
	assertPanics(t, "bad fraction", func() { full.TrainTestSplit(r, 0) })
}

func TestStratifiedSamplePreservesProportions(t *testing.T) {
	d := smallClassification()
	r := rng.New(3)
	idx := d.StratifiedSample(r, 4)
	if len(idx) != 4 {
		t.Fatalf("sampled %d", len(idx))
	}
	counts := [2]int{}
	for _, i := range idx {
		counts[d.Class[i]]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Fatalf("stratified counts = %v", counts)
	}
	assertPanics(t, "k too large", func() { d.StratifiedSample(r, 7) })
	assertPanics(t, "k zero", func() { d.StratifiedSample(r, 0) })
}

func TestStratifiedIndicesProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		labels := make([]int, 60)
		for i := range labels {
			labels[i] = r.Intn(3)
		}
		for _, k := range []int{1, 10, 30, 60} {
			idx := StratifiedIndices(r, labels, 3, k)
			if len(idx) != k {
				return false
			}
			seen := map[int]bool{}
			for _, i := range idx {
				if i < 0 || i >= 60 || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMergeRareClasses(t *testing.T) {
	// 100 instances, 4 classes: sizes 60, 30, 6, 4. Mean 25; threshold 2.5.
	// Nothing rare at 10% -> identity.
	labels := buildLabels(60, 30, 6, 4)
	out, n := MergeRareClasses(labels, 4, 0.10)
	if n != 4 {
		t.Fatalf("unexpected merge: %d categories", n)
	}
	for i := range labels {
		if out[i] != labels[i] {
			t.Fatal("identity mapping expected")
		}
	}
	// Higher threshold: classes 2 (6) and 3 (4) fall under 0.5*25=12.5 and merge.
	out, n = MergeRareClasses(labels, 4, 0.5)
	if n != 3 {
		t.Fatalf("expected 3 categories, got %d", n)
	}
	catOfClass2 := out[90]
	catOfClass3 := out[96]
	if catOfClass2 != catOfClass3 {
		t.Fatalf("rare classes not merged: %d vs %d", catOfClass2, catOfClass3)
	}
	if out[0] == catOfClass2 || out[60] == catOfClass2 {
		t.Fatal("frequent class merged with rare")
	}
}

func TestMergeRareClassesSingleRareUntouched(t *testing.T) {
	// Only one rare class: no "other less frequent classes" to merge with.
	labels := buildLabels(50, 45, 5)
	out, n := MergeRareClasses(labels, 3, 0.3)
	if n != 3 {
		t.Fatalf("single rare class should stay: %d categories", n)
	}
	_ = out
}

func buildLabels(sizes ...int) []int {
	var labels []int
	for c, s := range sizes {
		for i := 0; i < s; i++ {
			labels = append(labels, c)
		}
	}
	return labels
}

func TestBinRegressionTargets(t *testing.T) {
	target := []float64{10, 1, 5, 7, 3, 9, 2, 8, 4, 6}
	bins := BinRegressionTargets(target, 2)
	for i, v := range target {
		wantBin := 0
		if v > 5 {
			wantBin = 1
		}
		if bins[i] != wantBin {
			t.Fatalf("value %v in bin %d, want %d", v, bins[i], wantBin)
		}
	}
	assertPanics(t, "one bin", func() { BinRegressionTargets(target, 1) })
}

func TestBinRegressionTiesShareBin(t *testing.T) {
	target := []float64{1, 1, 1, 1, 2, 2}
	bins := BinRegressionTargets(target, 3)
	for i := 1; i < 4; i++ {
		if bins[i] != bins[0] {
			t.Fatalf("equal targets in different bins: %v", bins)
		}
	}
}

func TestLabelCategoriesDispatch(t *testing.T) {
	d := smallClassification()
	labels, n := LabelCategories(d, 0.1, 4)
	if n != 2 || len(labels) != 6 {
		t.Fatalf("classification categories: %d cats, %d labels", n, len(labels))
	}
	reg := &Dataset{Kind: Regression, X: mat.NewDense(8, 1), Target: []float64{1, 2, 3, 4, 5, 6, 7, 8}}
	labels, n = LabelCategories(reg, 0.1, 4)
	if n != 4 {
		t.Fatalf("regression bins = %d", n)
	}
	if labels[0] == labels[7] {
		t.Fatal("extreme targets share a bin")
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
