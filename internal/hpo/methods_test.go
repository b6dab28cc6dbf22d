package hpo

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"enhancedbhpo/internal/search"
)

// Tests for the extended optimizer set: PASHA, DEHB, SMAC, TPE and grid
// search, all on the planted-quality fake evaluator from hpo_test.go.

func TestPASHAFindsGoodConfig(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0005}
	res, err := ladder("pasha", schedule{eta: 2, perFold: 20}).Run(context.Background(), space, ev, vanComps(), RunOptions{MaxConfigs: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if q := quality(res.Best); q < 4.0/6-1e-9 {
		t.Fatalf("PASHA picked quality %v", q)
	}
	if res.Method != "pasha" {
		t.Errorf("method = %q", res.Method)
	}
	// All configs evaluated at rung 0.
	rung0 := 0
	for _, tr := range res.Trials {
		if tr.Round == 0 {
			rung0++
		}
	}
	if rung0 != 16 {
		t.Fatalf("rung 0 evaluated %d, want 16", rung0)
	}
}

func TestPASHASavesBudgetWhenStable(t *testing.T) {
	// With near-zero noise the ranking settles immediately, so PASHA
	// should stop at a low rung and use less total budget than ASHA's
	// full ladder.
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 6400, quality: quality, noise: 1e-9}
	sc := schedule{eta: 2, perFold: 20}
	resP, err := ladder("pasha", sc).Run(context.Background(), space, ev, vanComps(), RunOptions{MaxConfigs: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	resA, err := ladder("asha", sc).Run(context.Background(), space, ev, vanComps(), RunOptions{MaxConfigs: 16, Workers: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	budget := func(trials []Trial) int {
		total := 0
		for _, tr := range trials {
			total += tr.Budget
		}
		return total
	}
	if bp, ba := budget(resP.Trials), budget(resA.Trials); bp >= ba {
		t.Fatalf("PASHA budget %d not below ASHA %d on a stable ranking", bp, ba)
	}
}

func TestDEHBFindsGoodConfig(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 1600, quality: quality, noise: 0.0005}
	res, err := ladder("dehb", schedule{eta: 3, perFold: 10}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if q := quality(res.Best); q < 4.0/6-1e-9 {
		t.Fatalf("DEHB picked quality %v", q)
	}
	if res.Method != "dehb" {
		t.Errorf("method = %q", res.Method)
	}
}

func TestSMACFindsGoodConfig(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 400, quality: quality, noise: 0.0001}
	res, err := method("smac").Run(context.Background(), space, ev, vanComps(), RunOptions{Trials: 12, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 12 {
		t.Fatalf("evaluated %d trials", len(res.Trials))
	}
	// SMAC should at least match random's expected best after 12 of 16
	// configs; with the surrogate it should find a top config.
	if q := quality(res.Best); q < 4.0/6-1e-9 {
		t.Fatalf("SMAC picked quality %v", q)
	}
	// All evaluations at full budget (sequential BO baseline).
	for _, tr := range res.Trials {
		if tr.Budget != 400 {
			t.Fatalf("SMAC used budget %d", tr.Budget)
		}
	}
}

func TestSMACDoesNotRepeatConfigs(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 400, quality: quality, noise: 0.0001}
	res, err := method("smac").Run(context.Background(), space, ev, vanComps(), RunOptions{Trials: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, tr := range res.Trials {
		if seen[tr.Config.ID()] {
			t.Fatalf("config %s evaluated twice", tr.Config.ID())
		}
		seen[tr.Config.ID()] = true
	}
}

func TestTPEFindsGoodConfig(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 400, quality: quality, noise: 0.0001}
	res, err := method("tpe").Run(context.Background(), space, ev, vanComps(), RunOptions{Trials: 12, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 12 {
		t.Fatalf("evaluated %d trials", len(res.Trials))
	}
	if q := quality(res.Best); q < 4.0/6-1e-9 {
		t.Fatalf("TPE picked quality %v", q)
	}
	if res.Method != "tpe" {
		t.Errorf("method = %q", res.Method)
	}
}

func TestGridSearchExhaustive(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 400, quality: quality, noise: 0.00001}
	res, err := method("grid").Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != space.Size() {
		t.Fatalf("grid evaluated %d of %d", len(res.Trials), space.Size())
	}
	// Exhaustive + tiny noise: must find the unique optimum.
	if q := quality(res.Best); q < 1-1e-9 {
		t.Fatalf("grid picked quality %v", q)
	}
}

func TestGridSearchCapped(t *testing.T) {
	space, quality := gradedSpace()
	ev := &fakeEvaluator{space: space, full: 400, quality: quality, noise: 0.0001}
	res, err := method("grid").Run(context.Background(), space, ev, vanComps(), RunOptions{MaxConfigs: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trials) != 5 {
		t.Fatalf("capped grid evaluated %d", len(res.Trials))
	}
}

func TestEncodeOneHot(t *testing.T) {
	space, _ := gradedSpace()
	c := space.NewConfig([]int{1, 3})
	row := encodeOneHot(space, c)
	if len(row) != 8 {
		t.Fatalf("one-hot width %d", len(row))
	}
	wantOnes := map[int]bool{1: true, 4 + 3: true}
	for i, v := range row {
		if wantOnes[i] && v != 1 {
			t.Fatalf("position %d = %v, want 1", i, v)
		}
		if !wantOnes[i] && v != 0 {
			t.Fatalf("position %d = %v, want 0", i, v)
		}
	}
}

func TestExpectedImprovement(t *testing.T) {
	// Better mean, no uncertainty: EI = mean - best.
	if got := expectedImprovement(0.9, 0, 0.8); got < 0.1-1e-12 || got > 0.1+1e-12 {
		t.Fatalf("deterministic EI = %v", got)
	}
	// Worse mean, no uncertainty: EI = 0.
	if got := expectedImprovement(0.7, 0, 0.8); got != 0 {
		t.Fatalf("hopeless EI = %v", got)
	}
	// Uncertainty adds hope even below the incumbent.
	if got := expectedImprovement(0.7, 0.2, 0.8); got <= 0 {
		t.Fatalf("uncertain EI = %v, want > 0", got)
	}
	// More uncertainty, more EI.
	lo := expectedImprovement(0.7, 0.1, 0.8)
	hi := expectedImprovement(0.7, 0.3, 0.8)
	if hi <= lo {
		t.Fatalf("EI not increasing in std: %v vs %v", lo, hi)
	}
}

func TestRankingStable(t *testing.T) {
	space, _ := gradedSpace()
	cfgs := space.Enumerate()
	lower := []ranked{
		{cfg: cfgs[0], score: 0.9, order: 0},
		{cfg: cfgs[1], score: 0.8, order: 1},
		{cfg: cfgs[2], score: 0.7, order: 2},
	}
	upperAgree := []ranked{
		{cfg: cfgs[0], score: 0.95, order: 0},
		{cfg: cfgs[1], score: 0.85, order: 1},
	}
	if !rankingStable(lower, upperAgree) {
		t.Fatal("agreeing rungs reported unstable")
	}
	upperDisagree := []ranked{
		{cfg: cfgs[0], score: 0.80, order: 0},
		{cfg: cfgs[1], score: 0.95, order: 1},
	}
	if rankingStable(lower, upperDisagree) {
		t.Fatal("disagreeing rungs reported stable")
	}
	if rankingStable(lower, nil) {
		t.Fatal("empty upper rung reported stable")
	}
}

// TestDEHBDeterministicBySeed: one seed, one trial sequence. The DE pool
// is drawn from by index, so it must be ranked by a total order that does
// not depend on the archive map's iteration order: without evaluation
// noise the equal-sum configurations of the graded space tie exactly, and
// a NaN score compares false both ways under >.
func TestDEHBDeterministicBySeed(t *testing.T) {
	space, quality := gradedSpace()
	nanOnDiagonal := func(c search.Config) float64 {
		if c.Index(0) == c.Index(1) {
			return math.NaN()
		}
		return quality(c)
	}
	for _, tc := range []struct {
		name    string
		quality func(search.Config) float64
	}{{"ties", quality}, {"nan", nanOnDiagonal}} {
		t.Run(tc.name, func(t *testing.T) {
			var first string
			for run := 0; run < 30; run++ {
				ev := &fakeEvaluator{space: space, full: 800, quality: tc.quality}
				res, err := ladder("dehb", schedule{eta: 2, perFold: 20}).Run(context.Background(), space, ev, vanComps(), RunOptions{Seed: 6})
				if err != nil {
					t.Fatal(err)
				}
				var seq strings.Builder
				for _, tr := range res.Trials {
					fmt.Fprintf(&seq, "%s@%d ", tr.Config.ID(), tr.Budget)
				}
				if run == 0 {
					first = seq.String()
				} else if seq.String() != first {
					t.Fatalf("run %d evaluated another trial sequence with the same seed:\n first %s\n now   %s", run, first, seq.String())
				}
			}
		})
	}
}
