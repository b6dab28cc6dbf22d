package experiments

import (
	"fmt"
	"io"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/scoring"
)

// Figure 7 isolates the metric design (§IV-D, "Variance and Sampling in
// Metric Design"): grouping and folds are held fixed (3 general + 2
// special) and only the scorer changes — the vanilla mean vs the paper's
// UCB-β (Eq. 3) — across subset sizes.

// Fig7Result reproduces Figure 7: cells "vanilla" and "ours" (the metric)
// at each ratio X, per dataset.
type Fig7Result struct {
	Grid
}

// RunFig7 runs the metric ablation across subset sizes.
func RunFig7(s Settings) (*Fig7Result, error) {
	folds, groups := cv.GroupFolds{KGen: 3, KSpe: 2}, &grouping.Options{V: 2}
	metrics := []cvCell{
		{label: "vanilla", folds: folds, scorer: scoring.MeanScorer{}, groups: groups},
		{label: "ours", folds: folds, scorer: scoring.UCBScorer{}, groups: groups},
	}
	cells, err := s.runCVGrid("fig7", s.datasetsOr(CVDatasets), cvSweep(metrics, Fig5Ratios, 47), cvGroupSeed)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Grid{cells}}, nil
}

// Print renders the Figure 7 series.
func (r *Fig7Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: test accuracy (%) and nDCG, vanilla mean vs UCB-β metric")
	for _, name := range r.Datasets() {
		fmt.Fprintf(w, "\n%s\n", name)
		fmt.Fprintf(w, "  %-6s %14s %8s %14s %8s\n", "ratio", "vanilla-acc", "ndcg", "ours-acc", "ndcg")
		for _, ratio := range Fig5Ratios {
			v, o := r.Cell(name, "vanilla", ratio), r.Cell(name, "ours", ratio)
			fmt.Fprintf(w, "  %-6.0f %14s %8.3f %14s %8.3f\n",
				ratio*100, pct(v.TestMean), v.NDCG, pct(o.TestMean), o.NDCG)
		}
	}
}
