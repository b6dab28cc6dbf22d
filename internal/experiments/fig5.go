package experiments

import (
	"fmt"
	"io"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/scoring"
)

// Fig5Ratios are the subset sizes swept in Figure 5.
var Fig5Ratios = []float64{0.1, 0.25, 0.5, 0.75, 1.0}

// Fig5Result reproduces Figure 5: test accuracy and nDCG of random,
// stratified and our cross-validation across subset sizes — one cell per
// (dataset, method, ratio X).
type Fig5Result struct {
	Grid
}

// fig5Methods returns the three compared CV strategies. "ours" combines
// group folds (3 general + 2 special) with the UCB-β metric, exactly the
// §IV-C configuration.
func fig5Methods() []cvCell {
	return []cvCell{
		{label: "random", folds: cv.RandomKFold{}, scorer: scoring.MeanScorer{}},
		{label: "stratified", folds: cv.StratifiedKFold{}, scorer: scoring.MeanScorer{}},
		{label: "ours", folds: cv.GroupFolds{KGen: 3, KSpe: 2}, scorer: scoring.UCBScorer{}, groups: &grouping.Options{V: 2}},
	}
}

// RunFig5 runs the Figure 5 sweep.
func RunFig5(s Settings) (*Fig5Result, error) {
	cells, err := s.runCVGrid("fig5", s.datasetsOr(CVDatasets), cvSweep(fig5Methods(), Fig5Ratios, 37), cvGroupSeed)
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Grid{cells}}, nil
}

// Print renders the Figure 5 series as rows of (ratio, per-method accuracy
// and nDCG).
func (r *Fig5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 5: test accuracy (%) and nDCG under different subset sizes")
	for _, name := range r.Datasets() {
		fmt.Fprintf(w, "\n%s\n", name)
		fmt.Fprintf(w, "  %-6s", "ratio")
		for _, m := range fig5Methods() {
			fmt.Fprintf(w, " %12s %12s", m.label+"-acc", m.label+"-ndcg")
		}
		fmt.Fprintln(w)
		for _, ratio := range Fig5Ratios {
			fmt.Fprintf(w, "  %-6.0f", ratio*100)
			for _, m := range fig5Methods() {
				p := r.Cell(name, m.label, ratio)
				fmt.Fprintf(w, " %12s %12.3f", pct(p.TestMean), p.NDCG)
			}
			fmt.Fprintln(w)
		}
	}
}
