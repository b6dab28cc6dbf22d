package experiments

import (
	"fmt"
	"io"
	"strings"

	"enhancedbhpo/internal/core"
)

// The extended experiment goes beyond Table IV's three bandit methods: the
// paper argues its components are applicable to *all* bandit-based methods
// (§III: "our method is applicable to all other bandit-based methods"), so
// this harness plugs them into ASHA, PASHA and DEHB as well and compares
// vanilla vs enhanced on a few datasets.

// ExtendedResult is the extended-method comparison: cells labelled
// "<method> <variant>" per dataset.
type ExtendedResult struct {
	Grid
}

// ExtendedDatasets are the defaults for the extended comparison.
var ExtendedDatasets = []string{"australian", "splice", "satimage"}

// RunExtended compares ASHA/PASHA/DEHB vanilla vs enhanced.
func RunExtended(s Settings) (*ExtendedResult, error) {
	s = s.WithDefaults()
	var cells []hpoCell
	for _, name := range s.datasetsOr(ExtendedDatasets) {
		for _, method := range []string{"asha", "pasha", "dehb"} {
			for _, variant := range []core.Variant{core.Vanilla, core.Enhanced} {
				cells = append(cells, hpoCell{
					dataset: name, label: method + " " + variant.String(),
					method: method, variant: variant,
					seedMul: 89, seedAdd: 7,
					tune: func(o *core.Options) {
						// Two workers: ASHA's result does not depend on
						// the worker count. Bound the sampled
						// configuration counts to the Table IV setting.
						o.Workers = 2
						o.MaxConfigs = min(s.MaxConfigs, 27)
					},
				})
			}
		}
	}
	out, _, err := s.runHPOGrid("extended", cells)
	if err != nil {
		return nil, err
	}
	return &ExtendedResult{Grid{out}}, nil
}

// Print renders the comparison per dataset.
func (r *ExtendedResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Extended methods: vanilla vs enhanced components in ASHA, PASHA and DEHB")
	for i, c := range r.Cells {
		if i == 0 || c.Dataset != r.Cells[i-1].Dataset {
			fmt.Fprintf(w, "\n%s\n", c.Dataset)
			fmt.Fprintf(w, "  %-8s %-10s %16s %10s\n", "method", "variant", "testAcc(%)", "time(s)")
		}
		method, variant, _ := strings.Cut(c.Label, " ")
		mark := " "
		if variant == "enhanced" {
			if v := r.Cell(c.Dataset, method+" vanilla", 0); v != nil {
				mark = checkmark(c.TestMean, v.TestMean)
			}
		}
		fmt.Fprintf(w, "  %-8s %-10s %8s±%-7s %10.2f %s\n",
			method, variant, pct(c.TestMean), pct(c.TestStd), c.TimeMean, mark)
	}
}
