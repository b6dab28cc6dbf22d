// Package trace analyzes optimization trajectories: incumbent
// (best-so-far) curves, cumulative budget accounting, and per-round
// summaries. It backs the anytime-performance comparison between vanilla
// and enhanced methods — the "is it better at every time point, not just
// at the end" question — and gives library users a way to inspect what an
// optimizer actually did.
package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"enhancedbhpo/internal/hpo"
)

// Point is one step of an incumbent curve. The struct tags are its wire
// form — in the journal, the trace log, every SSE frame and every /trace
// body — and there is no MarshalJSON beside them: a point is scanned once.
type Point struct {
	// Evaluations completed so far (including this one).
	Evaluations int `json:"evaluations"`
	// CumBudget is the total instances consumed so far.
	CumBudget int `json:"cum_budget"`
	// CumTime is the summed evaluation wall time so far. A time.Duration
	// is an int64 of nanoseconds and encoding/json writes it as one, so it
	// travels as the integer the key names and curves round-trip
	// bit-for-bit.
	CumTime time.Duration `json:"cum_time_ns"`
	// BestScore is the incumbent (highest) score seen so far; it relies
	// on encoding/json's shortest-round-trip float rendering.
	BestScore float64 `json:"best_score"`
}

// Anytime returns the incumbent curve over the trial sequence in arrival
// order. An empty trial list yields an empty curve.
func Anytime(trials []hpo.Trial) []Point {
	points := make([]Point, 0, len(trials))
	best := 0.0
	haveBest := false
	cumBudget := 0
	var cumTime time.Duration
	for i, tr := range trials {
		cumBudget += tr.Budget
		cumTime += tr.Elapsed
		if !haveBest || tr.Score > best {
			best = tr.Score
			haveBest = true
		}
		points = append(points, Point{
			Evaluations: i + 1,
			CumBudget:   cumBudget,
			CumTime:     cumTime,
			BestScore:   best,
		})
	}
	return points
}

// TotalBudget returns the total instances consumed by the trials.
func TotalBudget(trials []hpo.Trial) int {
	total := 0
	for _, tr := range trials {
		total += tr.Budget
	}
	return total
}

// RoundSummary aggregates one halving round (or rung).
type RoundSummary struct {
	Round       int
	Evaluations int
	Budget      int // per-configuration budget of the round
	BestScore   float64
	MeanScore   float64
}

// ByRound groups trials into per-round summaries, ordered by round.
func ByRound(trials []hpo.Trial) []RoundSummary {
	byRound := map[int]*RoundSummary{}
	for _, tr := range trials {
		rs, ok := byRound[tr.Round]
		if !ok {
			rs = &RoundSummary{Round: tr.Round, BestScore: tr.Score}
			byRound[tr.Round] = rs
		}
		rs.Evaluations++
		rs.Budget = tr.Budget
		if tr.Score > rs.BestScore {
			rs.BestScore = tr.Score
		}
		rs.MeanScore += tr.Score
	}
	out := make([]RoundSummary, 0, len(byRound))
	for _, rs := range byRound {
		rs.MeanScore /= float64(rs.Evaluations)
		out = append(out, *rs)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Round < out[j].Round })
	return out
}

// AreaUnderCurve integrates the incumbent score over cumulative budget —
// a single scalar for "how good, how early". Higher is better; curves are
// compared at equal total budget by normalizing with the final budget.
func AreaUnderCurve(points []Point) float64 {
	if len(points) == 0 {
		return 0
	}
	var area float64
	prevBudget := 0
	for _, p := range points {
		area += p.BestScore * float64(p.CumBudget-prevBudget)
		prevBudget = p.CumBudget
	}
	if prevBudget == 0 {
		return 0
	}
	return area / float64(prevBudget)
}

// Fprint renders a result's trajectory: per-round table plus the final
// incumbent.
func Fprint(w io.Writer, res *hpo.Result) {
	fmt.Fprintf(w, "method %s: %d evaluations, %d instances total, %.2fs\n",
		res.Method, res.Evaluations, TotalBudget(res.Trials), res.Elapsed.Seconds())
	fmt.Fprintf(w, "  %-6s %-6s %-8s %-10s %-10s\n", "round", "evals", "budget", "best", "mean")
	for _, rs := range ByRound(res.Trials) {
		fmt.Fprintf(w, "  %-6d %-6d %-8d %-10.4f %-10.4f\n",
			rs.Round, rs.Evaluations, rs.Budget, rs.BestScore, rs.MeanScore)
	}
	points := Anytime(res.Trials)
	if len(points) > 0 {
		fmt.Fprintf(w, "  incumbent %.4f, budget-normalized AUC %.4f\n",
			points[len(points)-1].BestScore, AreaUnderCurve(points))
	}
}

// Sparkline renders the incumbent curve as a compact ASCII strip, for
// logs and examples. The scale runs from the first to the last finite
// incumbent; a non-finite point (a curve whose evaluator scored NaN or
// ±Inf) draws as the lowest level.
func Sparkline(points []Point, width int) string {
	if len(points) == 0 || width <= 0 {
		return ""
	}
	levels := []byte("_.-=#")
	top := len(levels) - 1
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	lo, hi := math.NaN(), math.NaN()
	for _, p := range points {
		if finite(p.BestScore) {
			if math.IsNaN(lo) {
				lo = p.BestScore
			}
			hi = p.BestScore
		}
	}
	step := float64(len(points)) / float64(width)
	if step < 1 {
		step = 1
		width = len(points)
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		idx := min(int(float64(i)*step), len(points)-1)
		level := 0
		switch v := points[idx].BestScore; {
		case !finite(v):
		case hi <= lo:
			level = top
		default:
			level = max(0, min(int((v-lo)/(hi-lo)*float64(top)), top))
		}
		b.WriteByte(levels[level])
	}
	return b.String()
}
