package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Printer is a finished experiment, rendering itself in the paper's layout.
type Printer interface {
	Print(w io.Writer)
}

// Experiment is one registry entry: all that cmd/experiments, the root
// benchmarks and the documentation know about an artifact.
type Experiment struct {
	// Name is the -exp value and the -out file stem.
	Name string
	// Group is "cv" for the cross-validation experiments (run together they
	// share ground truths through the in-process cache instead of redoing
	// the full-data trainings), "hpo" for the optimizer comparisons, ""
	// for the instant formula and inventory artifacts.
	Group string
	Run   func(Settings) (Printer, error)
}

// Registry lists every experiment in the order `-exp all` runs them: the
// instant artifacts, the CV experiments, then the HPO experiments.
var Registry = []Experiment{
	{"table2", "", func(s Settings) (Printer, error) { return RunTable2(s), nil }},
	{"fig3", "", func(Settings) (Printer, error) { return RunFig3(), nil }},
	{"prop1", "", func(Settings) (Printer, error) { return RunProp1(), nil }},
	{"table5", "cv", func(s Settings) (Printer, error) { return RunTable5(s) }},
	{"fig5", "cv", func(s Settings) (Printer, error) { return RunFig5(s) }},
	{"fig6", "cv", func(s Settings) (Printer, error) { return RunFig6(s) }},
	{"fig7", "cv", func(s Settings) (Printer, error) { return RunFig7(s) }},
	{"fig4", "hpo", func(s Settings) (Printer, error) { return RunFig4(s) }},
	{"table4", "hpo", func(s Settings) (Printer, error) { return RunTable4(s) }},
	{"baselines", "hpo", func(s Settings) (Printer, error) { return RunBaselines(s) }},
	{"anytime", "hpo", func(s Settings) (Printer, error) { return RunAnytime(s) }},
	{"ablations", "cv", func(s Settings) (Printer, error) { return RunAblations(s) }},
	{"robustness", "hpo", func(s Settings) (Printer, error) { return RunRobustness(s) }},
	{"extended", "hpo", func(s Settings) (Printer, error) { return RunExtended(s) }},
	{"stability", "hpo", func(s Settings) (Printer, error) { return RunStability(s) }},
}

// Names returns what Select accepts: every experiment name in registry
// order, then the groups and "all".
func Names() []string {
	var names []string
	for _, e := range Registry {
		names = append(names, e.Name)
	}
	return append(names, "cv", "hpo", "all")
}

// Select resolves an -exp value to registry entries, in registry order: a
// single experiment by name, a group ("cv", "hpo") or "all".
func Select(name string) ([]Experiment, error) {
	var out []Experiment
	for _, e := range Registry {
		if name == "all" || name == e.Name || (e.Group != "" && name == e.Group) {
			out = append(out, e)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("unknown experiment %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	return out, nil
}
