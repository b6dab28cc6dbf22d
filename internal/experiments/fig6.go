package experiments

import (
	"fmt"
	"io"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/scoring"
)

// Figure 6 sweeps the allocation of the 5 cross-validation folds between
// general and special folds, from all-general (5:0) to all-special (0:5),
// holding grouping and the metric fixed.

// Fig6Allocations are the k_gen:k_spe mixes swept in Figure 6.
var Fig6Allocations = [][2]int{{5, 0}, {4, 1}, {3, 2}, {2, 3}, {1, 4}, {0, 5}}

// Fig6Result reproduces Figure 6: one cell per (dataset, allocation),
// labelled "kgen:kspe".
type Fig6Result struct {
	Grid
	// Ratio is the subset size used (the paper's small-subset regime).
	Ratio float64
}

// RunFig6 runs the fold-allocation sweep at a 25% subset ratio, where the
// mix of fold types matters most.
func RunFig6(s Settings) (*Fig6Result, error) {
	res := &Fig6Result{Ratio: 0.25}
	// Special folds focus one group each; v = 5 lets the 0:5 and 1:4
	// allocations use distinct focus groups.
	groups := &grouping.Options{V: 5}
	var cells []cvCell
	for ai, alloc := range Fig6Allocations {
		cells = append(cells, cvCell{
			label: fmt.Sprintf("%d:%d", alloc[0], alloc[1]), ratio: res.Ratio, seedMul: 43, seedAdd: uint64(ai),
			folds: cv.GroupFolds{KGen: alloc[0], KSpe: alloc[1]}, scorer: scoring.UCBScorer{}, groups: groups,
		})
	}
	var err error
	res.Cells, err = s.runCVGrid("fig6", s.datasetsOr(CVDatasets), cells, cvGroupSeed)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the Figure 6 sweep.
func (r *Fig6Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: test accuracy (%%) and nDCG by fold allocation (subset %.0f%%)\n", r.Ratio*100)
	for i, c := range r.Cells {
		if i == 0 || c.Dataset != r.Cells[i-1].Dataset {
			fmt.Fprintf(w, "\n%s\n", c.Dataset)
			fmt.Fprintf(w, "  %-10s %14s %8s\n", "kgen:kspe", "testAcc(%)", "nDCG")
		}
		fmt.Fprintf(w, "  %-10s %7s±%-6s %8.3f\n", c.Label, pct(c.TestMean), pct(c.TestStd), c.NDCG)
	}
}
