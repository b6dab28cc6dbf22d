package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"enhancedbhpo/internal/dataset"
)

func fastWith(datasets ...string) Settings {
	s := FastSettings()
	s.Seeds = 2
	s.Datasets = datasets
	return s
}

func TestRunTable4Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunTable4(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Datasets()); n != 1 {
		t.Fatalf("%d rows", n)
	}
	if len(res.Cells) != 7 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.TestMean <= 0 || c.TestMean > 1 {
			t.Errorf("%s: test mean %v", c.Label, c.TestMean)
		}
		if c.TimeMean <= 0 {
			t.Errorf("%s: no time recorded", c.Label)
		}
	}
	checkGolden(t, "table4", res, res.Cells)
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	for _, want := range []string{"australian", "SHA+", "BOHB+", "random"} {
		if !strings.Contains(out, want) {
			t.Errorf("printout missing %q", want)
		}
	}
}

func TestMetricNames(t *testing.T) {
	// metricName mirrors Table IV: F1 on imbalanced sets, R2 on regression.
	cases := map[string]string{
		"gisette": "Acc", "machine": "F1", "a9a": "F1", "fraud": "F1",
		"satimage": "F1", "usps": "Acc", "molecules": "R2", "kc-house": "R2",
	}
	for name, want := range cases {
		spec, err := dataset.SpecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := metricName(name, spec.Kind); got != want {
			t.Errorf("%s: metric %q, want %q", name, got, want)
		}
	}
}

func TestRunTable5Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunTable5(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Datasets()); n != 1 {
		t.Fatalf("%d rows", n)
	}
	for _, ratio := range Table5Ratios {
		for _, method := range []string{"vanilla", "ours"} {
			c := res.Cell("australian", method, ratio)
			if c == nil {
				t.Fatalf("missing cell %s/%v", method, ratio)
			}
			if c.TestMean <= 0 || c.NDCG <= 0 {
				t.Errorf("%s/%v: acc %v ndcg %v", method, ratio, c.TestMean, c.NDCG)
			}
		}
	}
	checkGolden(t, "table5", res)
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "nDCG") {
		t.Error("printout missing header")
	}
}

func TestRunFig5Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig5(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Datasets()); n != 1 {
		t.Fatalf("%d series", n)
	}
	wantPoints := 3 * len(Fig5Ratios)
	if len(res.Cells) != wantPoints {
		t.Fatalf("%d points, want %d", len(res.Cells), wantPoints)
	}
	for _, p := range res.Cells {
		if p.NDCG < 0 || p.NDCG > 1+1e-9 {
			t.Errorf("%s@%v: nDCG %v", p.Label, p.X, p.NDCG)
		}
	}
	checkGolden(t, "fig5", res)
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "ours-acc") {
		t.Error("printout missing ours column")
	}
}

func TestRunFig6Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig6(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Datasets()); n != 1 {
		t.Fatalf("%d series", n)
	}
	if len(res.Cells) != len(Fig6Allocations) {
		t.Fatalf("%d allocations", len(res.Cells))
	}
	checkGolden(t, "fig6", res)
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "kgen:kspe") {
		t.Error("printout missing header")
	}
}

func TestRunFig7Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig7(fastWith("australian"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ratio := range Fig5Ratios {
		if res.Cell("australian", "vanilla", ratio) == nil || res.Cell("australian", "ours", ratio) == nil {
			t.Fatalf("missing points at ratio %v", ratio)
		}
	}
	checkGolden(t, "fig7", res)
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "vanilla-acc") {
		t.Error("printout missing header")
	}
}

func TestRunFig4Fast(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := RunFig4(fastWith())
	if err != nil {
		t.Fatal(err)
	}
	hp, size := res.HPSweep.Configs, res.SizeSweep.Configs
	if len(hp) < 2 || len(size) < 2 {
		t.Fatalf("sweeps too short: %d/%d", len(hp), len(size))
	}
	// Config counts must grow along both sweeps.
	for i := 1; i < len(hp); i++ {
		if hp[i] <= hp[i-1] {
			t.Error("HP sweep config count not increasing")
		}
	}
	for i := 1; i < len(size); i++ {
		if size[i] <= size[i-1] {
			t.Error("size sweep config count not increasing")
		}
	}
	checkGolden(t, "fig4", res, res.HPSweep.Cells, res.SizeSweep.Cells)
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "#HPs") {
		t.Error("printout missing header")
	}
}

func TestRunFig3Exact(t *testing.T) {
	res := RunFig3()
	if len(res.Gammas) != 101 {
		t.Fatalf("%d points", len(res.Gammas))
	}
	if d := res.Betas[0] - 10; d > 1e-9 || d < -1e-9 {
		t.Fatalf("β(0) = %v", res.Betas[0])
	}
	if d := res.Betas[100]; d > 1e-9 || d < -1e-9 {
		t.Fatalf("β(100) = %v", res.Betas[100])
	}
	mid := res.Betas[50]
	if mid < 4.99 || mid > 5.01 {
		t.Fatalf("β(50) = %v", mid)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "γ_min") {
		t.Error("printout missing bounds")
	}
	checkGolden(t, "fig3", res)
}

func TestRunProp1Shape(t *testing.T) {
	res := RunProp1()
	if len(res.Points) == 0 {
		t.Fatal("no points")
	}
	first := res.Points[0]
	if first.Eps != 0 {
		t.Fatal("sweep must start at ε=0")
	}
	if diff := first.Grouped - first.Random; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("ε=0 grouped %v != random %v", first.Grouped, first.Random)
	}
	// Monotone improvement with ε.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Grouped < res.Points[i-1].Grouped-1e-9 {
			t.Fatalf("grouped mass decreased at ε=%v", res.Points[i].Eps)
		}
	}
	last := res.Points[len(res.Points)-1]
	if last.Grouped < 0.999 {
		t.Fatalf("ε=p mass %v, want ~1", last.Grouped)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "grouped") {
		t.Error("printout missing column")
	}
	checkGolden(t, "prop1", res)
}

func TestRunTable2(t *testing.T) {
	res := RunTable2(Settings{Scale: 1})
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	types := map[string]int{}
	for _, row := range res.Rows {
		types[row.Type]++
		if row.PaperTrain == 0 {
			t.Errorf("%s: missing paper size", row.Name)
		}
		if row.Train <= 0 || row.Features <= 0 {
			t.Errorf("%s: bad sizes %+v", row.Name, row)
		}
	}
	if types["binary"] != 8 || types["multi-category"] != 2 || types["regression"] != 2 {
		t.Fatalf("type mix %v", types)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "kc-house") {
		t.Error("printout missing kc-house")
	}
	checkGolden(t, "table2", res)
}

func TestTable4Significance(t *testing.T) {
	// Build a synthetic Table IV where SHA+ always wins and BOHB+ always
	// loses; the paired tests must reflect that without any training.
	res := &Table4Result{}
	for i := 0; i < 8; i++ {
		d := fmt.Sprintf("d%d", i)
		base := 0.7 + float64(i)*0.01
		res.Cells = append(res.Cells,
			Cell{Dataset: d, Label: "SHA", TestMean: base},
			Cell{Dataset: d, Label: "SHA+", TestMean: base + 0.02},
			Cell{Dataset: d, Label: "HB", TestMean: base},
			Cell{Dataset: d, Label: "HB+", TestMean: base},
			Cell{Dataset: d, Label: "BOHB", TestMean: base},
			Cell{Dataset: d, Label: "BOHB+", TestMean: base - 0.02},
		)
	}
	rows := res.Significance()
	if len(rows) != 3 {
		t.Fatalf("%d significance rows", len(rows))
	}
	shaRow := rows[0]
	if shaRow.Wins != 8 || shaRow.Losses != 0 {
		t.Fatalf("SHA+ wins/losses %d/%d", shaRow.Wins, shaRow.Losses)
	}
	if shaRow.SignP > 0.05 {
		t.Fatalf("SHA+ sign p = %v", shaRow.SignP)
	}
	hbRow := rows[1]
	if hbRow.Wins != 0 || hbRow.Losses != 0 || hbRow.SignP != 1 {
		t.Fatalf("tied HB row %+v", hbRow)
	}
	bohbRow := rows[2]
	if bohbRow.Losses != 8 || bohbRow.SignP > 0.05 {
		t.Fatalf("BOHB row %+v", bohbRow)
	}
	var buf bytes.Buffer
	res.PrintSignificance(&buf)
	if !strings.Contains(buf.String(), "wilcoxon-p") {
		t.Error("significance printout missing header")
	}
}

// TestTable4SignificanceRefusesNonFinite: a diverged cell (a NaN mean
// test score) is not a tie. The pair's line names the refusal and how
// many scores were not finite; the finite pairs keep their p-values.
func TestTable4SignificanceRefusesNonFinite(t *testing.T) {
	res := &Table4Result{}
	for i := 0; i < 10; i++ {
		d := fmt.Sprintf("d%d", i)
		base := 0.7 + float64(i)*0.01
		sha := base + 0.02
		if i < 2 {
			sha = math.NaN()
		}
		res.Cells = append(res.Cells,
			Cell{Dataset: d, Label: "SHA", TestMean: base},
			Cell{Dataset: d, Label: "SHA+", TestMean: sha},
			Cell{Dataset: d, Label: "HB", TestMean: base},
			Cell{Dataset: d, Label: "HB+", TestMean: base + 0.01},
		)
	}
	var buf bytes.Buffer
	res.PrintSignificance(&buf)
	out := buf.String()
	if !strings.Contains(out, "SHA+ vs SHA    refused: 2 of 20 paired observations are not finite") {
		t.Errorf("SHA+ line does not refuse the two NaN cells:\n%s", out)
	}
	if !strings.Contains(out, "HB+ vs HB          10        0") {
		t.Errorf("HB+ line lost its counts:\n%s", out)
	}
}

func TestFormattingHelpers(t *testing.T) {
	if pct(0.8571) != "85.71" {
		t.Errorf("pct = %q", pct(0.8571))
	}
	// A tie is neither an improvement nor a loss, as in Significance.
	if checkmark(0.8, 0.7) != "+" || checkmark(0.7, 0.8) != "-" || checkmark(0.75, 0.75) != "=" {
		t.Error("checkmark symbols wrong")
	}
	// logf must be a no-op without a sink and reach the sink with one.
	s := Settings{}
	s.logf("ignored %d", 1)
	var got string
	s.Logf = func(format string, args ...any) { got = format }
	s.logf("hello %d", 2)
	if got != "hello %d" {
		t.Errorf("logf did not reach sink: %q", got)
	}
}

func TestSettingsDefaults(t *testing.T) {
	s := Settings{}.WithDefaults()
	if s.Scale <= 0 || s.Seeds <= 0 || s.MaxConfigs != 162 || s.NumHPs != 4 || s.MaxIter <= 0 {
		t.Fatalf("bad defaults: %+v", s)
	}
	fast := FastSettings()
	if fast.Seeds != 1 {
		t.Fatalf("fast seeds %d", fast.Seeds)
	}
}
