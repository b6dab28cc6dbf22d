package cv

import (
	"testing"

	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/rng"
	"enhancedbhpo/internal/stats"
)

// This file tests the paper's Proposition 1 claim at the fold level:
// subsets drawn through the instance groups reproduce the dataset's
// composition far more consistently than uniformly random subsets. The
// measurements need no model training, so the assertions can be tight.

// composition returns the fraction of fold-validation instances that
// belong to group 0.
func composition(folds []Fold, assign []int) float64 {
	in0, total := 0, 0
	for _, f := range folds {
		for _, idx := range f.Val {
			total++
			if assign[idx] == 0 {
				in0++
			}
		}
	}
	return float64(in0) / float64(total)
}

func TestGroupSamplingMoreStableThanRandom(t *testing.T) {
	d := testDataset(400, 60)
	g, err := grouping.Build(d, grouping.Options{V: 2}, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	const reps = 60
	budget := 40 // 10% — the unstable regime the paper targets
	var randomFracs, groupFracs []float64
	for rep := 0; rep < reps; rep++ {
		rf, err := (RandomKFold{}).Folds(d, g, budget, 5, rng.New(uint64(rep)+1000))
		if err != nil {
			t.Fatal(err)
		}
		randomFracs = append(randomFracs, composition(rf, g.Assign))
		gf, err := (GroupFolds{KGen: 5, KSpe: 0}).Folds(d, g, budget, 5, rng.New(uint64(rep)+2000))
		if err != nil {
			t.Fatal(err)
		}
		groupFracs = append(groupFracs, composition(gf, g.Assign))
	}
	randomVar := stats.Variance(randomFracs)
	groupVar := stats.Variance(groupFracs)
	// The group-stratified subsets pin the group mix; random subsets follow
	// a hypergeometric spread. The gap is large, so assert a 3× margin.
	if groupVar*3 > randomVar {
		t.Fatalf("group sampling variance %v not well below random %v", groupVar, randomVar)
	}
}

func TestSpecialFoldsDiverse(t *testing.T) {
	// Special folds must differ from each other: fold i focuses group
	// i mod v, so with v=2 the two special folds should have very
	// different group compositions.
	d := testDataset(300, 62)
	g, err := grouping.Build(d, grouping.Options{V: 2}, rng.New(63))
	if err != nil {
		t.Fatal(err)
	}
	folds, err := (GroupFolds{KGen: 0, KSpe: 2, SpecialBias: 0.8}).Folds(d, g, 100, 2, rng.New(64))
	if err != nil {
		t.Fatal(err)
	}
	frac := func(f Fold) float64 {
		in0 := 0
		for _, idx := range f.Val {
			if g.Assign[idx] == 0 {
				in0++
			}
		}
		return float64(in0) / float64(len(f.Val))
	}
	f0, f1 := frac(folds[0]), frac(folds[1])
	if f0-f1 < 0.3 && f1-f0 < 0.3 {
		t.Fatalf("special folds not diverse: group-0 fractions %v and %v", f0, f1)
	}
}

func TestGeneralFoldsMirrorGlobalMix(t *testing.T) {
	d := testDataset(400, 65)
	g, err := grouping.Build(d, grouping.Options{V: 3}, rng.New(66))
	if err != nil {
		t.Fatal(err)
	}
	folds, err := (GroupFolds{KGen: 5, KSpe: 0}).Folds(d, g, 200, 5, rng.New(67))
	if err != nil {
		t.Fatal(err)
	}
	for gi := 0; gi < g.V; gi++ {
		global := float64(len(g.Members[gi])) / float64(d.Len())
		for fi, f := range folds {
			in := 0
			for _, idx := range f.Val {
				if g.Assign[idx] == gi {
					in++
				}
			}
			frac := float64(in) / float64(len(f.Val))
			if frac < global-0.15 || frac > global+0.15 {
				t.Fatalf("fold %d group %d fraction %v vs global %v", fi, gi, frac, global)
			}
		}
	}
}
