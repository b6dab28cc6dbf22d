package core

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"enhancedbhpo/internal/dataset"
	"enhancedbhpo/internal/hpo"
	"enhancedbhpo/internal/nn"
	"enhancedbhpo/internal/search"
)

func fastBase() nn.Config {
	base := nn.DefaultConfig()
	base.MaxIter = 12
	base.LearningRateInit = 0.02
	base.HiddenLayerSizes = []int{6}
	return base
}

func smallData(t *testing.T) (train, test *dataset.Dataset) {
	t.Helper()
	spec, err := dataset.SpecByName("australian")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.4)
	train, test, err = dataset.Synthesize(spec, 11)
	if err != nil {
		t.Fatal(err)
	}
	dataset.Standardize(train, test)
	return train, test
}

func smallSpace(t *testing.T) *search.Space {
	t.Helper()
	s, err := search.TableIIISpace(2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunSHAVanillaAndEnhanced(t *testing.T) {
	train, test := smallData(t)
	space := smallSpace(t)
	for _, variant := range []Variant{Vanilla, Enhanced} {
		out, err := Run(train, test, Options{
			Method:     "sha",
			Variant:    variant,
			Space:      space,
			Base:       fastBase(),
			RunOptions: hpo.RunOptions{Seed: 1, MaxConfigs: 6},
		})
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if out.TestScore < 0.55 {
			t.Errorf("%v: test accuracy %v too low", variant, out.TestScore)
		}
		if out.Search.Best.ID() == "" {
			t.Errorf("%v: no best config", variant)
		}
		if out.Model == nil {
			t.Errorf("%v: no final model", variant)
		}
		if variant == Enhanced && out.SetupTime <= 0 {
			t.Errorf("enhanced run recorded no setup time")
		}
		if variant == Vanilla && out.SetupTime != 0 {
			t.Errorf("vanilla run recorded setup time %v", out.SetupTime)
		}
	}
}

func TestRunAllMethods(t *testing.T) {
	train, test := smallData(t)
	space := smallSpace(t)
	for _, method := range hpo.MethodNames() {
		out, err := Run(train, test, Options{
			Method:     method,
			Space:      space,
			Base:       fastBase(),
			RunOptions: hpo.RunOptions{Seed: 2, Workers: 2, MaxConfigs: 4, Trials: 3, MaxBrackets: 1},
		})
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if out.Search.Method != method {
			t.Errorf("%v: method recorded as %q", method, out.Search.Method)
		}
		if out.TestScore <= 0 {
			t.Errorf("%v: test score %v", method, out.TestScore)
		}
	}
	if _, err := Run(train, test, Options{Method: "hb", Space: space, Base: fastBase(), RunOptions: hpo.RunOptions{MaxBrackets: 1}}); err != nil {
		t.Errorf("alias hb: %v", err)
	}
	if _, err := Run(train, test, Options{Method: "sgd", Space: space}); err == nil || !strings.Contains(err.Error(), `unknown method "sgd"`) {
		t.Errorf("unknown method: got error %v", err)
	}
}

func TestRunValidation(t *testing.T) {
	train, test := smallData(t)
	if _, err := Run(train, test, Options{}); err == nil {
		t.Error("nil space accepted")
	}
	bad := train.Select([]int{0, 1, 2})
	bad.Class = bad.Class[:1]
	if _, err := Run(bad, test, Options{Space: smallSpace(t)}); err == nil {
		t.Error("invalid train accepted")
	}
}

func TestRunRegression(t *testing.T) {
	spec, err := dataset.SpecByName("kc-house")
	if err != nil {
		t.Fatal(err)
	}
	spec = spec.Scaled(0.15)
	train, test, err := dataset.Synthesize(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	dataset.Standardize(train, test)
	base := fastBase()
	base.Activation = nn.Tanh
	out, err := Run(train, test, Options{
		Method:     "sha",
		Variant:    Enhanced,
		Space:      smallSpace(t),
		Base:       base,
		RunOptions: hpo.RunOptions{Seed: 4, MaxConfigs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.TestScore < 0.2 {
		t.Errorf("regression R2 %v too low", out.TestScore)
	}
}

func TestRunUseF1(t *testing.T) {
	train, test := smallData(t)
	out, err := Run(train, test, Options{
		Method:     "sha",
		Space:      smallSpace(t),
		Base:       fastBase(),
		UseF1:      true,
		RunOptions: hpo.RunOptions{Seed: 5, MaxConfigs: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.TestScore < 0 || out.TestScore > 1 {
		t.Errorf("F1 %v out of range", out.TestScore)
	}
}

func TestVariantString(t *testing.T) {
	if Vanilla.String() != "vanilla" || Enhanced.String() != "enhanced" {
		t.Error("variant names wrong")
	}
}

// TestRunDeterministicBest runs one spec twice, then once more at one P,
// where the run has no idle core to lend a fold to: every trial's fold
// scores, the best configuration and the test score must match bit for
// bit, so lending changes no result.
func TestRunDeterministicBest(t *testing.T) {
	train, test := smallData(t)
	space := smallSpace(t)
	opts := Options{Method: "sha", Space: space, Base: fastBase(), RunOptions: hpo.RunOptions{Seed: 6, MaxConfigs: 4}}
	run := func() *Outcome {
		t.Helper()
		o, err := Run(train, test, opts)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	o1, o2 := run(), run()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	solo := run()
	for _, c := range []struct {
		label string
		o     *Outcome
	}{{"same seed", o2}, {"GOMAXPROCS 1", solo}} {
		if o1.Search.Best.ID() != c.o.Search.Best.ID() {
			t.Fatalf("%s picked a different config", c.label)
		}
		if math.Float64bits(o1.TestScore) != math.Float64bits(c.o.TestScore) {
			t.Fatalf("%s: test score %v, want %v", c.label, c.o.TestScore, o1.TestScore)
		}
		if len(c.o.Search.Trials) != len(o1.Search.Trials) {
			t.Fatalf("%s: %d trials, want %d", c.label, len(c.o.Search.Trials), len(o1.Search.Trials))
		}
		for i, tr := range o1.Search.Trials {
			got := c.o.Search.Trials[i].FoldScores
			if len(got) != len(tr.FoldScores) {
				t.Fatalf("%s: trial %d has %d fold scores, want %d", c.label, i, len(got), len(tr.FoldScores))
			}
			for f, want := range tr.FoldScores {
				if math.Float64bits(got[f]) != math.Float64bits(want) {
					t.Fatalf("%s: trial %d fold %d = %v, want %v", c.label, i, f, got[f], want)
				}
			}
		}
	}
}
