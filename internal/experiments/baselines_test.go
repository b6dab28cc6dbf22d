package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunBaselinesFast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunBaselines(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dataset != "australian" {
		t.Fatalf("dataset %q", res.Dataset)
	}
	for _, method := range []string{"random", "smac", "tpe", "grid", "SHA", "SHA+"} {
		c := res.Cell("australian", method, 0)
		if c == nil {
			t.Fatalf("missing method %s", method)
		}
		if c.TestMean <= 0 || c.TestMean > 1 {
			t.Errorf("%s: test %v", method, c.TestMean)
		}
		if c.TimeMean <= 0 {
			t.Errorf("%s: no time", method)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "smac") {
		t.Error("printout missing smac")
	}
	checkGolden(t, "baselines", res, res.Cells)
}

func TestRunAblationsFast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunAblations(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	points := map[string]int{}
	for _, p := range res.Cells {
		points[p.Label]++
		if p.TestMean <= 0 || p.NDCG <= 0 {
			t.Errorf("%s=%v: acc %v ndcg %v", p.Label, p.X, p.TestMean, p.NDCG)
		}
	}
	for _, knob := range []string{"v", "bias", "alpha", "rgroup"} {
		if points[knob] < 3 {
			t.Fatalf("%s sweep has %d points", knob, points[knob])
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "rgroup sweep") {
		t.Error("printout missing rgroup sweep")
	}
	checkGolden(t, "ablations", res)
}

func TestRunExtendedFast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunExtended(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Datasets()); n != 1 {
		t.Fatalf("%d rows", n)
	}
	for _, method := range []string{"asha", "pasha", "dehb"} {
		for _, variant := range []string{"vanilla", "enhanced"} {
			c := res.Cell("australian", method+" "+variant, 0)
			if c == nil {
				t.Fatalf("missing %s/%s", method, variant)
			}
			if c.TestMean <= 0 {
				t.Errorf("%s/%s: test %v", method, variant, c.TestMean)
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "pasha") {
		t.Error("printout missing pasha")
	}
	checkGolden(t, "extended", res, res.Cells)
}

func TestRunRobustnessFast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunRobustness(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2*len(RobustnessRates) {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, rate := range RobustnessRates {
		sha, shap := res.Cell("australian", "SHA", rate), res.Cell("australian", "SHA+", rate)
		if sha == nil || shap == nil {
			t.Fatalf("missing point at rate %v", rate)
		}
		if sha.TestMean <= 0 || shap.TestMean <= 0 {
			t.Errorf("rate %v: scores %v / %v", rate, sha.TestMean, shap.TestMean)
		}
	}
	// Heavy corruption should not beat the clean run for either variant
	// (allowing small-sample noise).
	clean := res.Cell("australian", "SHA", RobustnessRates[0])
	dirty := res.Cell("australian", "SHA", RobustnessRates[len(RobustnessRates)-1])
	if dirty.TestMean > clean.TestMean+0.15 {
		t.Errorf("SHA improved under corruption: %v -> %v", clean.TestMean, dirty.TestMean)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "label corruption") {
		t.Error("printout missing header")
	}
	checkGolden(t, "robustness", res, res.Cells)
}

func TestRunRobustnessRejectsRegression(t *testing.T) {
	// kc-house has no class labels to corrupt: a CLI argument must come
	// back as an error naming the dataset, not reach CorruptLabels' panic.
	_, err := RunRobustness(fastWith("kc-house"))
	if err == nil || !strings.Contains(err.Error(), "kc-house") || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("err = %v, want one naming kc-house and regression", err)
	}
}

func TestRunStabilityFast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	s := fastWith("australian")
	s.Seeds = 3
	res, err := RunStability(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for i, c := range res.Cells {
		if c.Runs != 3 {
			t.Errorf("%s: runs %d", c.Label, c.Runs)
		}
		if res.Distinct[i] < 1 || res.Distinct[i] > c.Runs {
			t.Errorf("%s: distinct winners %d of %d runs", c.Label, res.Distinct[i], c.Runs)
		}
		if c.TestMean <= 0 {
			t.Errorf("%s: test %v", c.Label, c.TestMean)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "distinct winners") {
		t.Error("printout missing header")
	}
	checkGolden(t, "stability", res, res.Cells)
}

func TestRunAnytimeFast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunAnytime(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.AUC <= 0 {
			t.Errorf("%s: AUC %v", c.Variant, c.AUC)
		}
		if c.Sparkline == "" {
			t.Errorf("%s: empty sparkline", c.Variant)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "enhanced") {
		t.Error("printout missing enhanced row")
	}
	checkGolden(t, "anytime", res)
	// anytime.json is the one artifact other tooling parses: pin its bytes
	// too, with the only wall-clock field of a curve point zeroed.
	for _, c := range res.Cells {
		for i := range c.Curve {
			c.Curve[i].CumTime = 0
		}
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "anytime.json", js.Bytes())
}
