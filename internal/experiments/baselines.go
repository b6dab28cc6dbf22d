package experiments

import (
	"fmt"
	"io"

	"enhancedbhpo/internal/core"
)

// The §IV-B text reports that with a time budget similar to Successive
// Halving's, full-budget model-based optimizers (SMAC3, Optuna/TPE) perform
// about like random search — which is why Table IV keeps only the random
// baseline. This experiment reproduces that comparison: random, SMAC, TPE,
// grid (capped) and SHA/SHA+ on one dataset, reporting test quality and
// time.

// BaselinesResult reproduces the §IV-B baseline comparison: one cell per
// method.
type BaselinesResult struct {
	Dataset string
	Grid
}

// RunBaselines compares the full-budget baselines against SHA and SHA+ on
// the first configured dataset (default: nticusdroid, the dataset the
// paper's anecdote uses).
func RunBaselines(s Settings) (*BaselinesResult, error) {
	space, err := cvSpace()
	if err != nil {
		return nil, err
	}
	res := &BaselinesResult{Dataset: s.firstDatasetOr("nticusdroid")}
	cells := []hpoCell{
		{label: "random", method: "random", variant: core.Vanilla},
		{label: "smac", method: "smac", variant: core.Vanilla},
		{label: "tpe", method: "tpe", variant: core.Vanilla},
		// The full-budget baselines run the paper's random-baseline trial
		// count, 10: random, SMAC and TPE by default, the grid by its cap.
		{label: "grid", method: "grid", variant: core.Vanilla, tune: func(o *core.Options) { o.MaxConfigs = 10 }},
		{label: "SHA", method: "sha", variant: core.Vanilla},
		{label: "SHA+", method: "sha", variant: core.Enhanced},
	}
	for i := range cells {
		c := &cells[i]
		c.dataset, c.space = res.Dataset, space
		c.seedMul, c.seedAdd = 997, 3
	}
	res.Cells, _, err = s.runHPOGrid("baselines", cells)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the comparison.
func (r *BaselinesResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Baselines (§IV-B): full-budget optimizers vs bandit methods on %s\n", r.Dataset)
	fmt.Fprintf(w, "  %-8s %16s %10s\n", "method", "testAcc(%)", "time(s)")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  %-8s %8s±%-7s %10.2f\n", c.Label, pct(c.TestMean), pct(c.TestStd), c.TimeMean)
	}
}
