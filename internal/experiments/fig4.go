package experiments

import (
	"fmt"
	"io"

	"enhancedbhpo/internal/core"
	"enhancedbhpo/internal/search"
)

// Figure 4 studies how SHA and SHA+ behave as the configuration count
// grows, from two directions: (a) adding Table III hyperparameters one at
// a time (1 → 8), and (b) growing the model-complexity space (widths ×
// depths). Both run on the australian dataset, as in the paper.

// Fig4Sweep is one direction of growth: cells "SHA" and "SHA+" at each
// sweep position X = 1, 2, ….
type Fig4Sweep struct {
	Grid
	// Configs[i] is the space size at X = i+1.
	Configs []int
}

// Fig4Result reproduces Figure 4.
type Fig4Result struct {
	// HPSweep grows the hyperparameter count.
	HPSweep Fig4Sweep
	// SizeSweep grows the model depth over widths {10..50}.
	SizeSweep Fig4Sweep
}

// RunFig4 runs both sweeps.
func RunFig4(s Settings) (*Fig4Result, error) {
	s = s.WithDefaults()
	maxHPs, maxDepth, widths := 8, 3, []int{10, 20, 30, 40, 50}
	if s.MaxConfigs < 54 {
		// Fast settings: cap the sweeps so the spaces stay evaluable.
		maxHPs, maxDepth, widths = 4, 2, []int{10, 20}
	}
	res := &Fig4Result{}
	var err error
	if res.HPSweep, err = s.fig4Sweep(maxHPs, search.TableIIISpace); err != nil {
		return nil, err
	}
	res.SizeSweep, err = s.fig4Sweep(maxDepth, func(depth int) (*search.Space, error) {
		return search.ModelSizeSpace(widths, depth)
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fig4Sweep runs SHA and SHA+ on the australian dataset over the space at
// each sweep position x = 1..n.
func (s Settings) fig4Sweep(n int, spaceAt func(x int) (*search.Space, error)) (Fig4Sweep, error) {
	var sweep Fig4Sweep
	var cells []hpoCell
	for x := 1; x <= n; x++ {
		space, err := spaceAt(x)
		if err != nil {
			return sweep, err
		}
		sweep.Configs = append(sweep.Configs, space.Size())
		cells = append(cells, shaPair("SHA", "SHA+", hpoCell{
			dataset: "australian", x: float64(x), space: space,
			seedMul: 101, seedAdd: uint64(x),
			tune: func(o *core.Options) { o.MaxConfigs = min(o.MaxConfigs, space.Size()) },
		})...)
	}
	var err error
	sweep.Cells, _, err = s.runHPOGrid("fig4", cells)
	return sweep, err
}

// Print renders both sweeps.
func (r *Fig4Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 4: performance changes as HPs and model size increase (australian)")
	fmt.Fprintln(w, "\n(a) number of hyperparameters")
	r.HPSweep.print(w, "#HPs")
	fmt.Fprintln(w, "\n(b) model complexity (depth over widths)")
	r.SizeSweep.print(w, "depth")
}

// print renders one sweep as rows of (position, space size, accuracy and
// time per variant).
func (sw *Fig4Sweep) print(w io.Writer, axis string) {
	fmt.Fprintf(w, "  %-5s %-8s %10s %10s %10s %10s\n", axis, "configs", "SHA-acc", "SHA+-acc", "SHA-t(s)", "SHA+-t(s)")
	for i, configs := range sw.Configs {
		v, e := sw.Cell("australian", "SHA", float64(i+1)), sw.Cell("australian", "SHA+", float64(i+1))
		fmt.Fprintf(w, "  %-5d %-8d %10s %10s %10.2f %10.2f\n",
			i+1, configs, pct(v.TestMean), pct(e.TestMean),
			v.TimeMean, e.TimeMean)
	}
}
