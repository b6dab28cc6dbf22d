package hpo

import (
	"context"
	"math"
	"testing"

	"enhancedbhpo/internal/search"
)

// TestHyperbandBracketSchedule verifies the published bracket arithmetic:
// with R/r_min = eta^s_max, bracket s starts n_s = ceil((s_max+1)·eta^s/(s+1))
// configurations at budget R·eta^{-s}, halving by eta each rung.
func TestHyperbandBracketSchedule(t *testing.T) {
	space, quality := gradedSpace()
	// R = 1600, r_min = 200, eta = 2 -> s_max = 3, brackets s = 3,2,1,0.
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0001}
	res, err := Hyperband(context.Background(), space, ev, vanComps(), HyperbandOptions{Eta: 2, MinBudget: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Collect (round, budget, count) from the trials.
	type key struct{ round, budget int }
	counts := map[key]int{}
	for _, tr := range res.Trials {
		counts[key{tr.Round, tr.Budget}]++
	}
	// Bracket s=3: n = ceil(4·8/4) = 8 configs at budget 200, then 4@400,
	// 2@800, 1@1600 (rounds 0..3).
	want := []struct {
		round, budget, n int
	}{
		{0, 200, 8},
		{1, 400, 4},
		{2, 800, 2},
		{3, 1600, 1},
	}
	for _, wnt := range want {
		if got := counts[key{wnt.round, wnt.budget}]; got != wnt.n {
			t.Errorf("round %d budget %d: %d evaluations, want %d", wnt.round, wnt.budget, got, wnt.n)
		}
	}
	// Bracket s=0 runs ceil(4·1/1) = 4 configs straight at full budget.
	lastRound := 0
	for k := range counts {
		if k.round > lastRound {
			lastRound = k.round
		}
	}
	if got := counts[key{lastRound, 1600}]; got != 4 {
		t.Errorf("final bracket: %d evaluations at full budget, want 4", got)
	}
}

func TestHyperbandMaxBrackets(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0001}
	full, err := Hyperband(context.Background(), space, ev, vanComps(), HyperbandOptions{Eta: 2, MinBudget: 200, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := Hyperband(context.Background(), space, ev, vanComps(), HyperbandOptions{Eta: 2, MinBudget: 200, MaxBrackets: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(capped.Trials) >= len(full.Trials) {
		t.Fatalf("capped run evaluated %d >= full %d", len(capped.Trials), len(full.Trials))
	}
}

func TestHyperbandBudgetsNeverExceedFull(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 777, quality: quality, noise: 0.001}
	res, err := Hyperband(context.Background(), space, ev, vanComps(), HyperbandOptions{Eta: 3, MinBudget: 30, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trials {
		if tr.Budget > 777 {
			t.Fatalf("budget %d exceeds full %d", tr.Budget, 777)
		}
		if tr.Budget < 30 {
			t.Fatalf("budget %d below minimum", tr.Budget)
		}
	}
}

func TestHyperbandTinyBudgetSingleBracket(t *testing.T) {
	// R < eta·r_min -> s_max = 0: one bracket, full-budget evaluations only.
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 100, quality: quality, noise: 0.0001}
	res, err := Hyperband(context.Background(), space, ev, vanComps(), HyperbandOptions{Eta: 3, MinBudget: 60, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Trials {
		if tr.Budget != 100 {
			t.Fatalf("single-bracket run used budget %d", tr.Budget)
		}
	}
	if math.IsInf(res.BestScore, -1) {
		t.Fatal("no best score recorded")
	}
}

func TestBOHBSamplesValidConfigsOnly(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 800, quality: quality, noise: 0.001}
	res, err := BOHB(context.Background(), space, ev, vanComps(), BOHBOptions{
		Hyperband: HyperbandOptions{Eta: 2, MinBudget: 100, Seed: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	valid := map[string]bool{}
	for _, c := range space.Enumerate() {
		valid[c.ID()] = true
	}
	for _, tr := range res.Trials {
		if !valid[tr.Config.ID()] {
			t.Fatalf("BOHB evaluated config %s outside the space", tr.Config.ID())
		}
	}
}

func TestDEHBProposesWithinSpace(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 800, quality: quality, noise: 0.001}
	res, err := DEHB(context.Background(), space, ev, vanComps(), DEHBOptions{
		Hyperband: HyperbandOptions{Eta: 2, MinBudget: 100, Seed: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	var configs []search.Config
	for _, tr := range res.Trials {
		configs = append(configs, tr.Config)
	}
	for _, c := range configs {
		for d := range space.Dims {
			if c.Index(d) < 0 || c.Index(d) >= len(space.Dims[d].Values) {
				t.Fatalf("DEHB config index out of range: %s", c.ID())
			}
		}
	}
}
