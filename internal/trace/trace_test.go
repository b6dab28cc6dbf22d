package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"enhancedbhpo/internal/hpo"
)

func sampleTrials() []hpo.Trial {
	return []hpo.Trial{
		{Budget: 100, Round: 0, Score: 0.5, Elapsed: time.Millisecond},
		{Budget: 100, Round: 0, Score: 0.7, Elapsed: time.Millisecond},
		{Budget: 100, Round: 0, Score: 0.6, Elapsed: time.Millisecond},
		{Budget: 200, Round: 1, Score: 0.75, Elapsed: 2 * time.Millisecond},
		{Budget: 200, Round: 1, Score: 0.65, Elapsed: 2 * time.Millisecond},
		{Budget: 400, Round: 2, Score: 0.8, Elapsed: 4 * time.Millisecond},
	}
}

func TestAnytimeMonotone(t *testing.T) {
	points := Anytime(sampleTrials())
	if len(points) != 6 {
		t.Fatalf("%d points", len(points))
	}
	prev := -1.0
	for i, p := range points {
		if p.BestScore < prev {
			t.Fatalf("incumbent decreased at %d", i)
		}
		prev = p.BestScore
		if p.Evaluations != i+1 {
			t.Fatalf("evaluations at %d = %d", i, p.Evaluations)
		}
	}
	last := points[len(points)-1]
	if last.BestScore != 0.8 {
		t.Fatalf("final incumbent %v", last.BestScore)
	}
	if last.CumBudget != 1100 {
		t.Fatalf("cumulative budget %d", last.CumBudget)
	}
	if last.CumTime != 11*time.Millisecond {
		t.Fatalf("cumulative time %v", last.CumTime)
	}
}

// TestStepRanksNaNLast: the incumbent takes hpo.Better's rule — a NaN
// after a score keeps the score, and a score after a NaN replaces it.
func TestStepRanksNaNLast(t *testing.T) {
	nan := math.NaN()
	trials := []hpo.Trial{{Score: nan}, {Score: 0.5}, {Score: nan}, {Score: 0.25}, {Score: 0.75}}
	want := []float64{nan, 0.5, 0.5, 0.5, 0.75}
	for i, p := range Anytime(trials) {
		if p.Evaluations != i+1 || !sameScore(p.BestScore, want[i]) {
			t.Errorf("point %d = %+v, want incumbent %v", i, p, want[i])
		}
	}
}

func sameScore(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }

func TestAnytimeEmpty(t *testing.T) {
	if got := Anytime(nil); len(got) != 0 {
		t.Fatalf("empty trials gave %d points", len(got))
	}
	if AreaUnderCurve(nil) != 0 {
		t.Fatal("empty AUC != 0")
	}
}

func TestTotalBudget(t *testing.T) {
	if got := TotalBudget(sampleTrials()); got != 1100 {
		t.Fatalf("total budget %d", got)
	}
}

func TestByRound(t *testing.T) {
	rounds := ByRound(sampleTrials())
	if len(rounds) != 3 {
		t.Fatalf("%d rounds", len(rounds))
	}
	if rounds[0].Evaluations != 3 || rounds[1].Evaluations != 2 || rounds[2].Evaluations != 1 {
		t.Fatalf("evaluation counts wrong: %+v", rounds)
	}
	if rounds[0].BestScore != 0.7 {
		t.Fatalf("round 0 best %v", rounds[0].BestScore)
	}
	if rounds[1].Budget != 200 {
		t.Fatalf("round 1 budget %d", rounds[1].Budget)
	}
	wantMean := (0.5 + 0.7 + 0.6) / 3
	if diff := rounds[0].MeanScore - wantMean; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("round 0 mean %v", rounds[0].MeanScore)
	}
}

func TestAreaUnderCurve(t *testing.T) {
	points := []Point{
		{CumBudget: 100, BestScore: 0.5},
		{CumBudget: 200, BestScore: 1.0},
	}
	// 0.5*100 + 1.0*100 over 200 = 0.75.
	if got := AreaUnderCurve(points); got != 0.75 {
		t.Fatalf("AUC = %v", got)
	}
	// A curve that reaches the optimum earlier has higher AUC.
	early := []Point{{CumBudget: 100, BestScore: 1.0}, {CumBudget: 200, BestScore: 1.0}}
	if AreaUnderCurve(early) <= AreaUnderCurve(points) {
		t.Fatal("early success did not raise AUC")
	}
}

func TestFprint(t *testing.T) {
	res := &hpo.Result{Method: "sha", Trials: sampleTrials(), Evaluations: 6}
	var buf bytes.Buffer
	Fprint(&buf, res)
	out := buf.String()
	for _, want := range []string{"method sha", "round", "incumbent 0.8"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSparkline(t *testing.T) {
	if s := Sparkline(Anytime(sampleTrials()), 10); len(s) == 0 {
		t.Fatal("empty sparkline")
	}
	curve := func(scores ...float64) []Point {
		pts := make([]Point, len(scores))
		for i, v := range scores {
			pts[i] = Point{CumBudget: i + 1, BestScore: v}
		}
		return pts
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name   string
		points []Point
		width  int
		want   string
	}{
		{"nil", nil, 10, ""},
		{"zero width", curve(0.1, 0.2), 0, ""},
		{"flat", curve(0.5, 0.5), 5, "##"},
		{"short rising", curve(0, 0.5, 1), 10, "_-#"},
		{"downsampled", curve(0, 0.25, 0.5, 0.75, 1, 1), 3, "_-#"},
		{"all NaN", curve(nan, nan, nan), 5, "___"},
		{"NaN head", curve(nan, 0.2, 0.4), 5, "__#"},
		{"NaN inside", curve(0, nan, 1), 5, "__#"},
		{"-Inf incumbent then finite", curve(-inf, -inf, 0.3, 0.6), 4, "___#"},
		{"+Inf", curve(0, inf, 1), 3, "__#"},
		{"one finite among NaN", curve(nan, 0.7, nan), 3, "_#_"},
	} {
		if got := Sparkline(tc.points, tc.width); got != tc.want {
			t.Errorf("%s: Sparkline = %q, want %q", tc.name, got, tc.want)
		}
	}
}
