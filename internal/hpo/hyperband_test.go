package hpo

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"enhancedbhpo/internal/search"
)

// TestHyperbandBracketSchedule: Hyperband's brackets follow the closed
// form of Li et al. (arXiv 1603.06560) for η ∈ {2, 3, 4}. With
// s_max = ⌊log_η(R/r_min)⌋, bracket s = s_max..0 starts
// n_s = ⌈(s_max+1)/(s+1)·η^s⌉ configurations at R·η^(−s), and each of its
// s+1 rungs keeps 1/η of the rung below at η times the budget.
func TestHyperbandBracketSchedule(t *testing.T) {
	// 1 000 configurations, so no bracket runs out of them.
	digits := []any{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	space := &search.Space{Dims: []search.Dimension{{Name: "a", Values: digits}, {Name: "b", Values: digits}, {Name: "c", Values: digits}}}
	quality := func(c search.Config) float64 { return float64(c.Index(0)+c.Index(1)+c.Index(2)) / 27 }
	type rung struct{ n, budget int }
	for _, tc := range []struct{ eta, perFold, full int }{
		{2, 20, 1600}, // r_min = 100: s_max = 4
		{3, 4, 540},   // the paper default r_min = 4·K = 20: s_max = 3
		{3, 10, 1600}, // R/r_min = 32, no power of 3: s_max = 3
		{4, 5, 1600},  // r_min = 25: s_max = 3
	} {
		rMin := tc.perFold * vanComps().K
		t.Run(fmt.Sprintf("eta=%d/R=%d/rmin=%d", tc.eta, tc.full, rMin), func(t *testing.T) {
			ev := &fakeEvaluator{space: space, full: tc.full, quality: quality, noise: 0.001}
			res, err := ladder("hyperband", schedule{eta: tc.eta, perFold: tc.perFold}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var got []rung
			for _, tr := range res.Trials {
				if tr.Round == len(got) {
					got = append(got, rung{budget: tr.Budget})
				}
				if got[tr.Round].budget != tr.Budget {
					t.Fatalf("round %d trains at %d and %d", tr.Round, got[tr.Round].budget, tr.Budget)
				}
				got[tr.Round].n++
			}
			sMax := 0
			for p := tc.eta; rMin*p <= tc.full; p *= tc.eta {
				sMax++
			}
			var want []rung
			for s := sMax; s >= 0; s-- {
				etaS := int(math.Pow(float64(tc.eta), float64(s)))
				n := ((sMax+1)*etaS + s) / (s + 1)
				for i := 0; i <= s; i++ {
					budget := int(math.Round(float64(tc.full) * math.Pow(float64(tc.eta), float64(i-s))))
					want = append(want, rung{n, budget})
					n = max(n/tc.eta, 1)
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("s_max = %d: rungs (configurations, budget)\n got  %v\n want %v", sMax, got, want)
			}
		})
	}
}

func TestHyperbandMaxBrackets(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0001}
	hb := ladder("hyperband", schedule{eta: 2, perFold: 40})
	full, err := hb.Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := hb.Run(context.Background(), space, ev, vanComps(), RunOptions{MaxBrackets: 1, Seed: 2})
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
	res, err := ladder("hyperband", schedule{eta: 3, perFold: 6}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 3})
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
	res, err := ladder("hyperband", schedule{eta: 3, perFold: 12}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 4})
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
	res, err := ladder("bohb", schedule{eta: 2, perFold: 20}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 5})
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
	res, err := ladder("dehb", schedule{eta: 2, perFold: 20}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 6})
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
