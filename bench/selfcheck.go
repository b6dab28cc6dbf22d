package main

import (
	"fmt"
	"os"
)

// runSelfcheck runs the whole end-to-end benchmark twice on the same
// build and fails if any metric of the second set is worse than the
// first by more than its bound — the rule a later change is held to,
// applied to no change at all. It prints both sets side by side and
// warns when a workload's noise ratio says the host was too busy to
// trust the run.
func runSelfcheck(h *harness, spec *benchSpec, opt options) (int, error) {
	ok := true
	for _, w := range workloads {
		var sets [2]report
		for i := range sets {
			r, res, err := e2eReport(h, spec, w, opt)
			if err != nil {
				return 1, err
			}
			sets[i] = r
			if res.noise > 1.5 {
				fmt.Fprintf(os.Stderr, "bench: WARNING %s: noise ratio %.2f > 1.5, the host is too busy to trust this run\n", w.name, res.noise)
			}
			if !r.Correct {
				fmt.Printf("%s: run %d is not correct (%d of %d failed)\n", w.name, i+1, r.Failed, r.Attempted)
				ok = false
			}
		}
		fmt.Printf("== %s\n  %-22s %14s %14s %9s %7s\n", w.name, "metric", "first", "second", "change", "bound")
		for _, m := range spec.EndToEnd {
			a, b := sets[0].Metrics[m.Name].Value, sets[1].Metrics[m.Name].Value
			worse := (b - a) / a
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  EXCEEDS BOUND"
				ok = false
			}
			fmt.Printf("  %-22s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", m.Name, a, b, 100*(b-a)/a, 100*m.Bound, verdict)
		}
	}
	if !ok {
		return 1, nil
	}
	return 0, nil
}
