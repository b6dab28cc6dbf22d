package experiments

import (
	"fmt"
	"io"
)

// The stability experiment quantifies the paper's "Unstable Results"
// discussion head-on: the same optimization is repeated across seeds and
// the spread of outcomes is compared between vanilla and enhanced
// components — standard deviation of the final test score and the number
// of distinct configurations selected. A stable method selects the same
// (or an equivalent) configuration regardless of sampling randomness.

// StabilityResult holds the comparison for one dataset: cells "vanilla"
// and "enhanced".
type StabilityResult struct {
	Dataset string
	Grid
	// Distinct[i] is the number of different winning configurations among
	// the Runs repetitions of Cells[i].
	Distinct []int
}

// RunStability repeats SHA vs SHA+ across seeds on the first configured
// dataset (default australian). Settings.Seeds controls the repetition
// count; the paper uses 5, and more repetitions sharpen the comparison.
func RunStability(s Settings) (*StabilityResult, error) {
	res := &StabilityResult{Dataset: s.firstDatasetOr("australian")}
	// Same data split every time: only the optimizer's own randomness
	// varies, which is exactly the instability §II-C describes.
	cells, runs, err := s.runHPOGrid("stability", shaPair("vanilla", "enhanced", hpoCell{
		dataset: res.Dataset, seedMul: 613, seedAdd: 11, fixedData: true,
	}))
	if err != nil {
		return nil, err
	}
	res.Cells = cells
	for _, outcomes := range runs {
		chosen := map[string]bool{}
		for _, o := range outcomes {
			chosen[o.Search.Best.ID()] = true
		}
		res.Distinct = append(res.Distinct, len(chosen))
	}
	return res, nil
}

// Print renders the stability comparison.
func (r *StabilityResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Stability across optimizer seeds on %s (fixed data)\n", r.Dataset)
	fmt.Fprintf(w, "  %-10s %16s %18s\n", "variant", "testAcc(%)", "distinct winners")
	for i, c := range r.Cells {
		fmt.Fprintf(w, "  %-10s %8s±%-7s %10d/%d\n",
			c.Label, pct(c.TestMean), pct(c.TestStd), r.Distinct[i], c.Runs)
	}
}
