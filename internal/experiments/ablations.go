package experiments

import (
	"fmt"
	"io"

	"enhancedbhpo/internal/cv"
	"enhancedbhpo/internal/grouping"
	"enhancedbhpo/internal/scoring"
)

// The ablation experiment sweeps the enhanced method's own knobs — the
// design choices DESIGN.md calls out — on the CV protocol at a small
// subset ratio (where the enhancements matter most):
//
//	v        group count (§III-A recommends 2–5)
//	bias     special-fold focus fraction (§III-B suggests 0.8)
//	alpha    variance weight α with β_max = 1/α (§III-C recommendation)
//	rgroup   balanced-clustering ratio (§IV-B uses 0.8)

// AblationResult holds all sweeps for one dataset: cells labelled by knob
// with the knob's value as X, in sweep order.
type AblationResult struct {
	Dataset string
	Ratio   float64
	Grid
}

// RunAblations sweeps the enhanced method's parameters on the first
// configured dataset (default australian) at a 25% subset ratio.
func RunAblations(s Settings) (*AblationResult, error) {
	res := &AblationResult{Dataset: s.firstDatasetOr("australian"), Ratio: 0.25}

	sweeps := []struct {
		knob   string
		values []float64
	}{
		{"v", []float64{2, 3, 4, 5}},
		{"bias", []float64{0.6, 0.7, 0.8, 0.9}},
		{"alpha", []float64{0.05, 0.1, 0.2, 0.5}},
		{"rgroup", []float64{0.2, 0.5, 0.8}},
	}
	var cells []cvCell
	for _, sw := range sweeps {
		for _, value := range sw.values {
			// The paper's defaults, with the swept knob overridden.
			k := map[string]float64{"v": 2, "bias": 0.8, "alpha": scoring.DefaultAlpha, "rgroup": 0.8}
			k[sw.knob] = value
			// Keep 5 folds total; with v groups the special folds cover
			// min(v, 2) focus groups, matching the paper's 3+2 default.
			cells = append(cells, cvCell{
				label: sw.knob, x: value, ratio: res.Ratio, seedMul: 59, seedAdd: uint64(value * 100),
				folds:  cv.GroupFolds{KGen: 3, KSpe: 2, SpecialBias: k["bias"]},
				scorer: scoring.UCBScorer{Alpha: k["alpha"], BetaMax: 1 / k["alpha"]},
				groups: &grouping.Options{V: int(k["v"]), RGroup: k["rgroup"]},
			})
		}
	}
	var err error
	res.Cells, err = s.runCVGrid("ablations", []string{res.Dataset}, cells,
		func(seed int) uint64 { return uint64(seed) ^ 0xab1a })
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the sweeps grouped by knob.
func (r *AblationResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablations on %s (subset %.0f%%): enhanced-method parameter sweeps\n", r.Dataset, r.Ratio*100)
	for i, c := range r.Cells {
		if i == 0 || c.Label != r.Cells[i-1].Label {
			fmt.Fprintf(w, "\n%s sweep\n", c.Label)
			fmt.Fprintf(w, "  %-8s %14s %8s\n", c.Label, "testAcc(%)", "nDCG")
		}
		fmt.Fprintf(w, "  %-8.2f %7s±%-6s %8.3f\n", c.X, pct(c.TestMean), pct(c.TestStd), c.NDCG)
	}
}
