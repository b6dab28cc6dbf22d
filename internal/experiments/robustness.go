package experiments

import (
	"fmt"
	"io"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/rng"
)

// The robustness experiment stresses the paper's stability claim: labels
// are corrupted at increasing rates before optimization, and SHA vs SHA+
// final test quality (measured on clean test data) is compared. The
// enhanced evaluation, which leans on the data's cluster structure rather
// than labels alone, should degrade more gracefully.

// RobustnessResult holds the sweep for one dataset: cells "SHA" and "SHA+"
// at each corruption rate X.
type RobustnessResult struct {
	Dataset string
	Grid
}

// RobustnessRates are the label-corruption rates swept.
var RobustnessRates = []float64{0, 0.1, 0.2, 0.3}

// RunRobustness sweeps label corruption on the first configured dataset
// (default australian), which must be a classification dataset.
func RunRobustness(s Settings) (*RobustnessResult, error) {
	res := &RobustnessResult{Dataset: s.firstDatasetOr("australian")}
	spec, err := dataset.SpecByName(res.Dataset)
	if err != nil {
		return nil, err
	}
	if spec.Kind != dataset.Classification {
		return nil, fmt.Errorf("robustness %s: label corruption needs class labels, and this is a %s dataset", res.Dataset, spec.Kind)
	}
	var cells []hpoCell
	for _, rate := range RobustnessRates {
		cells = append(cells, shaPair("SHA", "SHA+", hpoCell{
			dataset: res.Dataset, x: rate, seedMul: 71, seedAdd: uint64(rate * 1000),
			prepare: func(train *dataset.Dataset, seed int) *dataset.Dataset {
				return train.CorruptLabels(rng.New(uint64(seed)*31+uint64(rate*100)), rate)
			},
		})...)
	}
	res.Cells, _, err = s.runHPOGrid("robustness", cells)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the corruption sweep.
func (r *RobustnessResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Robustness to label corruption on %s (clean test set)\n", r.Dataset)
	fmt.Fprintf(w, "  %-8s %16s %16s\n", "noise", "SHA testAcc(%)", "SHA+ testAcc(%)")
	for _, rate := range RobustnessRates {
		v, e := r.Cell(r.Dataset, "SHA", rate), r.Cell(r.Dataset, "SHA+", rate)
		fmt.Fprintf(w, "  %-8.2f %8s±%-7s %8s±%-7s\n",
			rate, pct(v.TestMean), pct(v.TestStd), pct(e.TestMean), pct(e.TestStd))
	}
}
