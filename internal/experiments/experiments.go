// Package experiments regenerates every table and figure of the paper's
// evaluation section on the simulated datasets, plus the extensions. In
// Registry order:
//
//	table2     — Table II, the dataset inventory
//	fig3       — Figure 3, the β(γ) curve
//	prop1      — Proposition 1, sampling-stability analysis
//	table5     — Table V, grouping-only cross-validation ablation
//	fig5       — Figure 5, CV comparison (random / stratified / ours) vs subset size
//	fig6       — Figure 6, general:special fold-allocation sweep
//	fig7       — Figure 7, mean vs UCB-β metric vs subset size
//	fig4       — Figure 4, accuracy & time vs number of HPs and model size
//	table4     — Table IV, HPO comparison (random, SHA/SHA+, HB/HB+, BOHB/BOHB+)
//	baselines  — §IV-B, full-budget SMAC/TPE/grid vs random and SHA/SHA+
//	anytime    — incumbent curves of SHA vs SHA+ (budget-normalized AUC)
//	ablations  — the enhanced method's own knobs (v, bias, α, r_group)
//	robustness — SHA vs SHA+ under label corruption
//	extended   — the components in ASHA, PASHA and DEHB
//	stability  — outcome spread across optimizer seeds on fixed data
//
// Each experiment is a table of cells run by one of two grid runners
// (grid.go), a typed result so tests can assert the paper's qualitative
// claims, and a printer that emits rows shaped like the paper's.
package experiments

import "fmt"

// Settings scale the experiments. The paper's full protocol (162
// configurations, 5 seeds, 12 datasets at full size) takes hours; the
// defaults reproduce the same comparisons at laptop scale.
type Settings struct {
	// Scale multiplies dataset sizes (1.0 = the sizes in dataset.PaperSpecs,
	// which are already reduced from the paper's). 0 selects 0.35.
	Scale float64
	// Seeds is the number of repetitions with different random seeds
	// (the paper uses 5). 0 selects 3.
	Seeds int
	// MaxConfigs caps the configuration count for the HPO experiments
	// (the paper uses 162 = 4 HPs). 0 selects 162.
	MaxConfigs int
	// NumHPs is the number of Table III hyperparameters in the HPO space.
	// 0 selects 4 (the paper's §IV-B setting).
	NumHPs int
	// MaxIter caps MLP training epochs. 0 selects 20.
	MaxIter int
	// Datasets restricts which simulated datasets run (nil = experiment
	// defaults).
	Datasets []string
	// Logf, when non-nil, receives progress messages during long runs
	// (cmd/experiments wires it to stderr with -v).
	Logf func(format string, args ...any)
}

// logf emits a progress message when logging is enabled.
func (s Settings) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// WithDefaults returns the settings with zero fields resolved.
func (s Settings) WithDefaults() Settings {
	if s.Scale <= 0 {
		s.Scale = 0.35
	}
	if s.Seeds <= 0 {
		s.Seeds = 3
	}
	if s.MaxConfigs <= 0 {
		s.MaxConfigs = 162
	}
	if s.NumHPs <= 0 {
		s.NumHPs = 4
	}
	if s.MaxIter <= 0 {
		s.MaxIter = 20
	}
	return s
}

// FastSettings returns a configuration small enough for unit tests and
// benchmarks: one seed, tiny datasets, few configurations.
func FastSettings() Settings {
	return Settings{Scale: 0.12, Seeds: 1, MaxConfigs: 12, NumHPs: 2, MaxIter: 10}
}

// datasetsOr returns the configured datasets, or the experiment's
// defaults when none are configured.
func (s Settings) datasetsOr(defaults []string) []string {
	if s.Datasets != nil {
		return s.Datasets
	}
	return defaults
}

// firstDatasetOr returns the first configured dataset, for experiments
// that run on a single one, or the experiment's default.
func (s Settings) firstDatasetOr(def string) string {
	if len(s.Datasets) > 0 {
		return s.Datasets[0]
	}
	return def
}

// checkmark renders the paper's ✔/✘ annotation on an enhanced row: "+"
// when its mean test score beats its vanilla counterpart's, "-" when it
// loses, and "=" on an exact tie, which Significance counts as neither.
func checkmark(enhanced, vanilla float64) string {
	switch {
	case enhanced > vanilla:
		return "+"
	case enhanced < vanilla:
		return "-"
	}
	return "="
}

// pct formats a fraction as a percentage with the paper's precision.
func pct(v float64) string { return fmt.Sprintf("%.2f", v*100) }
