package cv

import (
	"testing"
	"testing/quick"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/mat"
	"enhancedbhpo/internal/rng"
)

func testDataset(n int, seed uint64) *dataset.Dataset {
	r := rng.New(seed)
	x := mat.NewDense(n, 3)
	class := make([]int, n)
	for i := 0; i < n; i++ {
		blob := i % 2
		for j := 0; j < 3; j++ {
			c := -3.0
			if blob == 1 {
				c = 3.0
			}
			x.Set(i, j, c+r.Norm())
		}
		class[i] = blob
	}
	return &dataset.Dataset{Name: "cv", Kind: dataset.Classification, X: x, Class: class, NumClasses: 2}
}

func testGroups(t *testing.T, d *dataset.Dataset, v int) *grouping.Groups {
	t.Helper()
	g, err := grouping.Build(d, grouping.Options{V: v}, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkFolds verifies structural invariants common to all builders: val
// parts are disjoint, train∩val empty per fold, and all indices in range.
func checkFolds(t *testing.T, folds []Fold, n int) {
	t.Helper()
	if len(folds) < 2 {
		t.Fatalf("only %d folds", len(folds))
	}
	seenVal := map[int]bool{}
	for fi, f := range folds {
		if len(f.Val) == 0 {
			t.Fatalf("fold %d empty val", fi)
		}
		if len(f.Train) == 0 {
			t.Fatalf("fold %d empty train", fi)
		}
		inVal := map[int]bool{}
		for _, idx := range f.Val {
			if idx < 0 || idx >= n {
				t.Fatalf("fold %d val index %d out of range", fi, idx)
			}
			if seenVal[idx] {
				t.Fatalf("index %d in multiple val parts", idx)
			}
			seenVal[idx] = true
			inVal[idx] = true
		}
		for _, idx := range f.Train {
			if idx < 0 || idx >= n {
				t.Fatalf("fold %d train index %d out of range", fi, idx)
			}
			if inVal[idx] {
				t.Fatalf("fold %d trains on its own val index %d", fi, idx)
			}
		}
	}
}

func TestRandomKFoldStructure(t *testing.T) {
	d := testDataset(100, 1)
	folds, err := RandomKFold{}.Folds(d, nil, 50, 5, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	checkFolds(t, folds, d.Len())
	// Budget respected: union of val parts == subset size.
	total := 0
	for _, f := range folds {
		total += len(f.Val)
	}
	if total != 50 {
		t.Fatalf("subset size %d, want 50", total)
	}
}

func TestStratifiedKFoldPreservesClassBalance(t *testing.T) {
	d := testDataset(100, 3)
	folds, err := StratifiedKFold{}.Folds(d, nil, 60, 5, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	checkFolds(t, folds, d.Len())
	for fi, f := range folds {
		counts := [2]int{}
		for _, idx := range f.Val {
			counts[d.Class[idx]]++
		}
		diff := counts[0] - counts[1]
		if diff < -2 || diff > 2 {
			t.Fatalf("fold %d class counts %v not balanced", fi, counts)
		}
	}
}

func TestStratifiedKFoldRegression(t *testing.T) {
	r := rng.New(5)
	n := 80
	x := mat.NewDense(n, 2)
	target := make([]float64, n)
	for i := 0; i < n; i++ {
		x.Set(i, 0, r.Norm())
		target[i] = float64(i)
	}
	d := &dataset.Dataset{Name: "reg", Kind: dataset.Regression, X: x, Target: target}
	folds, err := StratifiedKFold{RegressionBins: 4}.Folds(d, nil, 40, 4, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	checkFolds(t, folds, n)
}

func TestBudgetClamping(t *testing.T) {
	d := testDataset(40, 7)
	// Budget above n clamps to n.
	folds, err := RandomKFold{}.Folds(d, nil, 1000, 4, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, f := range folds {
		total += len(f.Val)
	}
	if total != 40 {
		t.Fatalf("clamped subset %d, want 40", total)
	}
	// Budget below 2k clamps up.
	folds, err = RandomKFold{}.Folds(d, nil, 3, 4, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	total = 0
	for _, f := range folds {
		total += len(f.Val)
	}
	if total < 8 {
		t.Fatalf("clamped-up subset %d < 8", total)
	}
}

func TestClampBudgetErrors(t *testing.T) {
	if _, err := (RandomKFold{}).Folds(testDataset(6, 10), nil, 6, 5, rng.New(1)); err == nil {
		t.Error("n<2k accepted")
	}
	if _, err := (RandomKFold{}).Folds(testDataset(20, 11), nil, 10, 1, rng.New(1)); err == nil {
		t.Error("k<2 accepted")
	}
}

func TestGroupFoldsStructure(t *testing.T) {
	d := testDataset(120, 12)
	g := testGroups(t, d, 2)
	builder := GroupFolds{KGen: 3, KSpe: 2}
	folds, err := builder.Folds(d, g, 60, 5, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	checkFolds(t, folds, d.Len())
}

func TestGroupFoldsSpecialBias(t *testing.T) {
	d := testDataset(200, 14)
	g := testGroups(t, d, 2)
	builder := GroupFolds{KGen: 3, KSpe: 2, SpecialBias: 0.8}
	folds, err := builder.Folds(d, g, 100, 5, rng.New(15))
	if err != nil {
		t.Fatal(err)
	}
	// The first KSpe folds are special: their val parts must be dominated
	// by their focus group.
	for i := 0; i < 2; i++ {
		focus := i % g.V
		inFocus := 0
		for _, idx := range folds[i].Val {
			if g.Assign[idx] == focus {
				inFocus++
			}
		}
		frac := float64(inFocus) / float64(len(folds[i].Val))
		if frac < 0.6 {
			t.Fatalf("special fold %d only %v from focus group", i, frac)
		}
	}
	// General folds should roughly mirror the global group mix.
	globalFrac := float64(len(g.Members[0])) / float64(d.Len())
	for i := 2; i < 5; i++ {
		in0 := 0
		for _, idx := range folds[i].Val {
			if g.Assign[idx] == 0 {
				in0++
			}
		}
		frac := float64(in0) / float64(len(folds[i].Val))
		if frac < globalFrac-0.25 || frac > globalFrac+0.25 {
			t.Fatalf("general fold %d group-0 fraction %v vs global %v", i, frac, globalFrac)
		}
	}
}

func TestGroupFoldsAllGeneralAndAllSpecial(t *testing.T) {
	d := testDataset(150, 16)
	g := testGroups(t, d, 2)
	for _, alloc := range []GroupFolds{{KGen: 5, KSpe: 0}, {KGen: 0, KSpe: 5}, {KGen: 1, KSpe: 4}} {
		folds, err := alloc.Folds(d, g, 75, 5, rng.New(17))
		if err != nil {
			t.Fatalf("%s: %v", alloc.Name(), err)
		}
		checkFolds(t, folds, d.Len())
	}
}

func TestGroupFoldsErrors(t *testing.T) {
	d := testDataset(60, 18)
	g := testGroups(t, d, 2)
	if _, err := (GroupFolds{KGen: 3, KSpe: 2}).Folds(d, nil, 30, 5, rng.New(1)); err == nil {
		t.Error("nil groups accepted")
	}
	if _, err := (GroupFolds{KGen: 3, KSpe: 2}).Folds(d, g, 30, 4, rng.New(1)); err == nil {
		t.Error("k mismatch accepted")
	}
	if _, err := (GroupFolds{KGen: 0, KSpe: 0}).Folds(d, g, 30, 0, rng.New(1)); err == nil {
		t.Error("zero folds accepted")
	}
	other := testDataset(61, 19)
	if _, err := (GroupFolds{KGen: 3, KSpe: 2}).Folds(other, g, 30, 5, rng.New(1)); err == nil {
		t.Error("mismatched groups accepted")
	}
}

func TestFoldsDisjointnessProperty(t *testing.T) {
	d := testDataset(90, 20)
	g := testGroups(t, d, 3)
	builders := []Builder{RandomKFold{}, StratifiedKFold{}, GroupFolds{KGen: 2, KSpe: 3}}
	f := func(seed uint64, budgetRaw uint8) bool {
		budget := 20 + int(budgetRaw)%60
		for _, b := range builders {
			folds, err := b.Folds(d, g, budget, 5, rng.New(seed))
			if err != nil {
				return false
			}
			seen := map[int]bool{}
			for _, fold := range folds {
				for _, idx := range fold.Val {
					if seen[idx] {
						return false
					}
					seen[idx] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestBuilderNames(t *testing.T) {
	if (RandomKFold{}).Name() == "" || (StratifiedKFold{}).Name() == "" {
		t.Error("empty builder name")
	}
	if (GroupFolds{KGen: 3, KSpe: 2}).Name() != "group-folds(3+2)" {
		t.Errorf("group folds name = %q", GroupFolds{KGen: 3, KSpe: 2}.Name())
	}
}
