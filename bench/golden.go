package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/serve"
)

// goldenJob is the frozen, deterministic outcome of one job of a
// workload's list. Every run checks every job against it; a mismatch is
// a failed job.
type goldenJob struct {
	Spec        serve.JobSpec  `json:"spec"`
	Evaluations int            `json:"evaluations"`
	BestConfig  map[string]any `json:"best_config"`
	BestScore   float64        `json:"best_score"`
	// BudgetSum is the Σ of trial budgets, i.e. the final cum_budget.
	BudgetSum int `json:"budget_sum"`
	// FinalIncumbent is the last curve point's best_score; the job's
	// time-to-target clock stops at targetShare of it.
	FinalIncumbent float64 `json:"final_incumbent"`
	// TargetIndex is the first curve point at or above the target. It is
	// checked only for Ordered jobs: a method that evaluates a rung
	// concurrently records trials in completion order, so the set of
	// trials is fixed but the position of one is not.
	TargetIndex int  `json:"target_index"`
	Ordered     bool `json:"ordered"`
}

// targetShare of the golden final incumbent is a job's target score.
const targetShare = 0.98

func (g goldenJob) target() float64 { return targetShare * g.FinalIncumbent }

type goldenFile map[string]goldenJob

func goldenPath() (string, error) {
	dir, err := findBenchDir()
	if err != nil {
		return "", err
	}
	return filepath.Join(dir, "golden.json"), nil
}

func loadGolden() (goldenFile, error) {
	path, err := goldenPath()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	g := goldenFile{}
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func (g goldenFile) save() error {
	path, err := goldenPath()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ordered reports whether the spec's method records trials in a fixed
// order: it does unless it honors the workers knob and gets more than one.
func ordered(spec serve.JobSpec) bool {
	m, ok := hpo.LookupMethod(spec.Method)
	return ok && (!m.Info().HonorsWorkers || spec.Workers == 1)
}

// targetIndex is the first point whose incumbent reaches target, or -1.
func targetIndex(points []curvePoint, target float64) int {
	for i, p := range points {
		if p.best >= target {
			return i
		}
	}
	return -1
}

// record turns an observed job into its golden entry (-update-golden).
func record(spec serve.JobSpec, o *outcome, snap serve.Snapshot) (goldenJob, error) {
	if o.err != nil {
		return goldenJob{}, o.err
	}
	if snap.Status != serve.StatusDone || snap.BestScore == nil || len(o.points) == 0 {
		return goldenJob{}, fmt.Errorf("job %s ended %s with %d curve points", o.id, snap.Status, len(o.points))
	}
	last := o.points[len(o.points)-1]
	g := goldenJob{
		Spec:           spec,
		Evaluations:    snap.Evaluations,
		BestConfig:     snap.BestConfig,
		BestScore:      *snap.BestScore,
		BudgetSum:      last.cumBudget,
		FinalIncumbent: last.best,
		Ordered:        ordered(spec),
	}
	g.TargetIndex = targetIndex(o.points, g.target())
	return g, nil
}

// check compares an observed job with its golden entry and returns what
// differs (nothing when the job is correct).
func (g goldenJob) check(o *outcome, snap serve.Snapshot) []string {
	if o.err != nil {
		return []string{o.err.Error()}
	}
	var bad []string
	if snap.Status != serve.StatusDone {
		return []string{fmt.Sprintf("status %s (%s %s)", snap.Status, snap.Reason, snap.Error)}
	}
	if snap.Evaluations != g.Evaluations || len(o.points) != g.Evaluations {
		bad = append(bad, fmt.Sprintf("evaluations %d (streamed %d), golden %d", snap.Evaluations, len(o.points), g.Evaluations))
	}
	if snap.BestScore == nil || *snap.BestScore != g.BestScore {
		bad = append(bad, fmt.Sprintf("best_score %v, golden %v", snap.BestScore, g.BestScore))
	}
	if canon(snap.BestConfig) != canon(g.BestConfig) {
		bad = append(bad, fmt.Sprintf("best_config %s, golden %s", canon(snap.BestConfig), canon(g.BestConfig)))
	}
	if n := len(o.points); n > 0 {
		if last := o.points[n-1]; last.cumBudget != g.BudgetSum || last.best != g.FinalIncumbent {
			bad = append(bad, fmt.Sprintf("final point budget %d incumbent %v, golden %d %v", last.cumBudget, last.best, g.BudgetSum, g.FinalIncumbent))
		}
	}
	if g.Ordered {
		if ti := targetIndex(o.points, g.target()); ti != g.TargetIndex {
			bad = append(bad, fmt.Sprintf("target index %d, golden %d", ti, g.TargetIndex))
		}
	}
	if math.IsNaN(o.toTarget) {
		bad = append(bad, "never reached its target score")
	}
	if m, _ := hpo.CanonicalName(g.Spec.Method); m == "hyperband" || m == "bohb" {
		bad = append(bad, checkBrackets(g.Spec, o.points)...)
	}
	return bad
}

// canon renders a config map with sorted keys, for comparison.
func canon(m map[string]any) string {
	data, _ := json.Marshal(m) // encoding/json sorts map keys
	return string(data)
}

// fullBudget is R, the training-set size the spec's evaluator hands out.
func fullBudget(spec serve.JobSpec) (int, error) {
	ds, err := dataset.SpecByName(spec.Dataset)
	if err != nil {
		return 0, err
	}
	scale := spec.Scale
	if scale == 0 {
		scale = 0.35
	}
	return ds.Scaled(scale).Train, nil
}

// hyperbandSchedule is Hyperband's closed form (arXiv 1603.06560) with
// the repo's defaults η = 3, r_min = 4·K = 20: s_max = ⌊log_η(R/r_min)⌋,
// B = (s_max+1)·R, and bracket s starts n = ⌈B/R · η^s/(s+1)⌉
// configurations at r = R·η^-s, keeping ⌊n_i/η⌋ per rung. It returns the
// per-trial budgets in evaluation order and the bracket count s_max+1.
func hyperbandSchedule(R int) (budgets []int, brackets int) {
	const eta, minBudget = 3.0, 20
	r := float64(R)
	sMax := int(math.Floor(math.Log(r/minBudget) / math.Log(eta)))
	if sMax < 0 {
		sMax = 0
	}
	bHB := float64(sMax+1) * r
	for s := sMax; s >= 0; s-- {
		n := int(math.Ceil(bHB / r * math.Pow(eta, float64(s)) / float64(s+1)))
		if n < 1 {
			n = 1
		}
		r0 := r * math.Pow(eta, -float64(s))
		for i := 0; i <= s && n > 0; i++ {
			ri := int(math.Round(r0 * math.Pow(eta, float64(i))))
			if ri < minBudget {
				ri = minBudget
			}
			if ri > R {
				ri = R
			}
			for c := 0; c < n; c++ {
				budgets = append(budgets, ri)
			}
			n /= int(eta)
			if i == s || n < 1 {
				n = 1
			}
		}
	}
	return budgets, sMax + 1
}

// checkBrackets holds a Hyperband or BOHB job's charged budgets against
// the closed form: trial for trial the same budget, which fixes the
// bracket count s_max+1, every rung's size and the total charged.
func checkBrackets(spec serve.JobSpec, points []curvePoint) []string {
	R, err := fullBudget(spec)
	if err != nil {
		return []string{err.Error()}
	}
	want, brackets := hyperbandSchedule(R)
	if len(points) != len(want) {
		return []string{fmt.Sprintf("closed form expects %d trials in %d brackets, saw %d", len(want), brackets, len(points))}
	}
	prev := 0
	for i, p := range points {
		if b := p.cumBudget - prev; b != want[i] {
			return []string{fmt.Sprintf("trial %d charged %d, closed form (%d brackets) %d", i, b, brackets, want[i])}
		}
		prev = p.cumBudget
	}
	return nil
}
