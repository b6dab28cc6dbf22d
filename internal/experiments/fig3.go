package experiments

import (
	"fmt"
	"io"
	"strings"

	"enhancedbhpo/internal/scoring"
)

// Fig3Result reproduces Figure 3: the β–γ curve for β_max = 10.
type Fig3Result struct {
	BetaMax float64
	Gammas  []float64
	Betas   []float64
}

// RunFig3 samples β over γ ∈ [0, 100]. It is a pure formula, so the
// reproduction is exact.
func RunFig3() *Fig3Result {
	const betaMax = 10.0
	gammas, betas := scoring.BetaSeries(betaMax, 101)
	return &Fig3Result{BetaMax: betaMax, Gammas: gammas, Betas: betas}
}

// Print renders the series with an ASCII sketch of the curve shape.
func (r *Fig3Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: β–γ line (β_max = %.0f)\n", r.BetaMax)
	gMin, gMax := scoring.GammaBounds(r.BetaMax)
	fmt.Fprintf(w, "γ_min = %.3f, γ_max = %.3f\n\n", gMin, gMax)
	fmt.Fprintf(w, "  %-8s %-8s\n", "gamma", "beta")
	for i := 0; i < len(r.Gammas); i += 5 {
		bar := max(int(r.Betas[i]/r.BetaMax*40), 0)
		fmt.Fprintf(w, "  %-8.1f %-8.3f %s\n", r.Gammas[i], r.Betas[i], strings.Repeat("#", bar))
	}
}
