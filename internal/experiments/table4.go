package experiments

import (
	"fmt"
	"io"
	"strings"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/stats"
)

// Table4Datasets are the ten datasets reported in the paper's Table IV
// (australian and splice appear only in the CV experiments).
var Table4Datasets = []string{
	"gisette", "nticusdroid", "credit2023", "machine", "a9a",
	"fraud", "usps", "satimage", "molecules", "kc-house",
}

// Table4Result is the full reproduction of Table IV: one cell per
// (dataset, method).
type Table4Result struct {
	Grid
	// Metric maps each dataset to "Acc", "F1" or "R2", following Table IV.
	Metric map[string]string
}

// metricName mirrors Table IV: F1 for the imbalanced classification
// datasets, R2 for regression, accuracy otherwise.
func metricName(name string, kind dataset.Kind) string {
	if kind == dataset.Regression {
		return "R2"
	}
	switch name {
	case "machine", "a9a", "fraud", "satimage":
		return "F1"
	}
	return "Acc"
}

// RunTable4 reproduces Table IV: for every dataset and method it runs the
// optimization across seeds and records train/test quality and search time.
func RunTable4(s Settings) (*Table4Result, error) {
	// The Table IV columns: the random baseline plus the three bandit
	// methods in vanilla and enhanced ("+") form.
	methods := []hpoCell{
		{label: "random", method: "random", variant: core.Vanilla},
		{label: "SHA", method: "sha", variant: core.Vanilla},
		{label: "SHA+", method: "sha", variant: core.Enhanced},
		{label: "HB", method: "hyperband", variant: core.Vanilla},
		{label: "HB+", method: "hyperband", variant: core.Enhanced},
		{label: "BOHB", method: "bohb", variant: core.Vanilla},
		{label: "BOHB+", method: "bohb", variant: core.Enhanced},
	}
	res := &Table4Result{Metric: map[string]string{}}
	var cells []hpoCell
	for _, name := range s.datasetsOr(Table4Datasets) {
		spec, err := dataset.SpecByName(name)
		if err != nil {
			return nil, err
		}
		res.Metric[name] = metricName(name, spec.Kind)
		useF1 := res.Metric[name] == "F1"
		for _, c := range methods {
			c.dataset = name
			c.seedMul, c.seedAdd = 7919, 13
			c.tune = func(o *core.Options) {
				o.UseF1 = useF1
				// Bound bracket counts so the scaled-down runs finish; the
				// schedule shape (multiple budgets per bracket) is preserved.
				o.MaxBrackets = 3
			}
			cells = append(cells, c)
		}
	}
	var err error
	res.Cells, _, err = s.runHPOGrid("table4", cells)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Print renders the result in the layout of Table IV: per dataset, the
// train/test quality and search time of each method, with a +/=/- mark on
// enhanced columns comparing them to their vanilla counterpart.
func (r *Table4Result) Print(w io.Writer) {
	fmt.Fprintf(w, "Table IV: train result (%%), test result (%%) and search time (sec.)\n")
	for i, c := range r.Cells {
		if i == 0 || c.Dataset != r.Cells[i-1].Dataset {
			metric := r.Metric[c.Dataset]
			fmt.Fprintf(w, "\n%s (%s)\n", c.Dataset, metric)
			fmt.Fprintf(w, "  %-8s %16s %16s %14s\n", "method", "train"+metric, "test"+metric, "time(s)")
		}
		mark := " "
		if vanilla, ok := strings.CutSuffix(c.Label, "+"); ok {
			if v := r.Cell(c.Dataset, vanilla, 0); v != nil {
				mark = checkmark(c.TestMean, v.TestMean)
			}
		}
		fmt.Fprintf(w, "  %-8s %7s±%-7s %7s±%-7s %7.2f±%-6.2f %s\n",
			c.Label,
			pct(c.TrainMean), pct(c.TrainStd),
			pct(c.TestMean), pct(c.TestStd),
			c.TimeMean, c.TimeStd, mark)
	}
	r.PrintSignificance(w)
}

// SignificanceRow summarizes one enhanced-vs-vanilla pairing across all
// datasets of the table.
type SignificanceRow struct {
	Enhanced, Vanilla string
	// Wins counts datasets where the enhanced mean test score is strictly
	// higher; Losses the reverse.
	Wins, Losses int
	// SignP is the two-sided sign-test p-value.
	SignP float64
	// WilcoxonP is the two-sided Wilcoxon signed-rank p-value (normal
	// approximation; 1 when too few datasets).
	WilcoxonP float64
	// Err is the tests' refusal when a mean test score is not finite (a
	// diverged cell); the counts and p-values are then unset.
	Err error
}

// Significance runs paired tests over the per-dataset mean test scores for
// each enhanced/vanilla pair — the statistical reading of the paper's
// ✔/✘ marks.
func (r *Table4Result) Significance() []SignificanceRow {
	pairs := [][2]string{{"SHA+", "SHA"}, {"HB+", "HB"}, {"BOHB+", "BOHB"}}
	var out []SignificanceRow
	for _, pair := range pairs {
		var enh, van []float64
		for _, name := range r.Datasets() {
			e, v := r.Cell(name, pair[0], 0), r.Cell(name, pair[1], 0)
			if e == nil || v == nil {
				continue
			}
			enh = append(enh, e.TestMean)
			van = append(van, v.TestMean)
		}
		if len(enh) == 0 {
			continue
		}
		sr := SignificanceRow{Enhanced: pair[0], Vanilla: pair[1]}
		sr.Wins, sr.Losses, sr.SignP, sr.Err = stats.SignTest(enh, van)
		if sr.Err == nil {
			_, sr.WilcoxonP, sr.Err = stats.WilcoxonSignedRank(enh, van)
		}
		out = append(out, sr)
	}
	return out
}

// PrintSignificance renders the paired-test summary.
func (r *Table4Result) PrintSignificance(w io.Writer) {
	rows := r.Significance()
	if len(rows) == 0 {
		return
	}
	fmt.Fprintln(w, "\npaired tests over per-dataset mean test scores (enhanced vs vanilla):")
	fmt.Fprintf(w, "  %-14s %6s %8s %10s %12s\n", "pair", "wins", "losses", "sign-p", "wilcoxon-p")
	for _, sr := range rows {
		if sr.Err != nil {
			fmt.Fprintf(w, "  %-14s refused: %v\n", sr.Enhanced+" vs "+sr.Vanilla, sr.Err)
			continue
		}
		fmt.Fprintf(w, "  %-14s %6d %8d %10.3f %12.3f\n",
			sr.Enhanced+" vs "+sr.Vanilla, sr.Wins, sr.Losses, sr.SignP, sr.WilcoxonP)
	}
}
