package experiments

import (
	"fmt"
	"io"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/scoring"
)

// Table V isolates the grouping contribution (§IV-D, "Feature and Label
// based Instance Grouping"): both methods use stratified sampling and the
// plain mean metric; "vanilla" stratifies on class labels while "ours"
// stratifies on the §III-A groups (all-general group folds). Ratios 10%
// and 100% match the paper.

// Table5Ratios are the two sampling ratios of Table V.
var Table5Ratios = []float64{0.1, 1.0}

// Table5Result reproduces Table V: cells "vanilla" and "ours" at each
// ratio X, per dataset.
type Table5Result struct {
	Grid
}

// RunTable5 runs the grouping ablation.
func RunTable5(s Settings) (*Table5Result, error) {
	methods := []cvCell{
		{label: "vanilla", folds: cv.StratifiedKFold{}, scorer: scoring.MeanScorer{}},
		{label: "ours", folds: cv.GroupFolds{KGen: 5, KSpe: 0}, scorer: scoring.MeanScorer{}, groups: &grouping.Options{V: 2}},
	}
	cells, err := s.runCVGrid("table5", s.datasetsOr(CVDatasets), cvSweep(methods, Table5Ratios, 41), cvGroupSeed)
	if err != nil {
		return nil, err
	}
	return &Table5Result{Grid{cells}}, nil
}

// Print renders the result in the layout of Table V.
func (r *Table5Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Table V: test accuracy (%) and nDCG, group-based vs vanilla stratified CV")
	for _, name := range r.Datasets() {
		fmt.Fprintf(w, "\n%s\n", name)
		fmt.Fprintf(w, "  %-6s %-8s %14s %8s\n", "ratio", "method", "testAcc(%)", "nDCG")
		for _, ratio := range Table5Ratios {
			for _, method := range []string{"vanilla", "ours"} {
				c := r.Cell(name, method, ratio)
				fmt.Fprintf(w, "  %-6.0f %-8s %7s±%-6s %8.3f\n",
					ratio*100, c.Label, pct(c.TestMean), pct(c.TestStd), c.NDCG)
			}
		}
	}
}
