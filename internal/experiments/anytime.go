package experiments

import (
	"encoding/json"
	"fmt"
	"io"

	"enhancedbhpo/internal/stats"
	"enhancedbhpo/internal/trace"
)

// The anytime experiment extends the paper's endpoint comparison: instead
// of only the final test score, it compares the whole incumbent curve of
// SHA vs SHA+ (budget-normalized area under the best-so-far score), which
// quantifies the claim that the enhanced evaluation avoids wasting early
// budget on configurations that will be discarded anyway.

// AnytimeCell summarizes one variant's trajectory.
type AnytimeCell struct {
	Variant    string        `json:"variant"`
	AUC        float64       `json:"auc"`
	AUCStd     float64       `json:"auc_std"`
	FinalScore float64       `json:"final_score"`
	Sparkline  string        `json:"sparkline"`
	Curve      []trace.Point `json:"curve"`
}

// AnytimeResult holds the comparison for one dataset.
type AnytimeResult struct {
	Dataset string        `json:"dataset"`
	Cells   []AnytimeCell `json:"cells"`
}

// RunAnytime compares the SHA and SHA+ incumbent curves on the first
// configured dataset (default australian).
func RunAnytime(s Settings) (*AnytimeResult, error) {
	res := &AnytimeResult{Dataset: s.firstDatasetOr("australian")}
	cells, runs, err := s.runHPOGrid("anytime", shaPair("vanilla", "enhanced", hpoCell{
		dataset: res.Dataset, seedMul: 53, seedAdd: 17,
	}))
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		// The curve shown is seed 0's; the AUC is averaged over all seeds.
		curve := trace.Anytime(runs[i][0].Search.Trials)
		var aucs []float64
		for _, o := range runs[i] {
			aucs = append(aucs, trace.AreaUnderCurve(trace.Anytime(o.Search.Trials)))
		}
		cell := AnytimeCell{Variant: c.Label, FinalScore: c.TestMean, Sparkline: trace.Sparkline(curve, 40), Curve: curve}
		cell.AUC, cell.AUCStd = stats.MeanStd(aucs)
		res.Cells = append(res.Cells, cell)
	}
	return res, nil
}

// WriteJSON emits the comparison, including the seed-0 incumbent curves,
// using the trace package's point serialization — the same wire format the
// bhpod /jobs status endpoint serves.
func (r *AnytimeResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Print renders the anytime comparison.
func (r *AnytimeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Anytime performance (SHA vs SHA+) on %s\n", r.Dataset)
	fmt.Fprintf(w, "  %-10s %16s %12s  %s\n", "variant", "AUC", "final test", "incumbent curve")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "  %-10s %8.4f±%-7.4f %12s  %s\n",
			c.Variant, c.AUC, c.AUCStd, pct(c.FinalScore), c.Sparkline)
	}
}
