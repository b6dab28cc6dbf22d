package dataset

import (
	"math"
	"reflect"
	"testing"
)

func TestPaperSpecsValid(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != 12 {
		t.Fatalf("expected 12 paper specs, got %d", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	// Task mix from Table II: 8 binary, 2 multi-class, 2 regression.
	binary, multi, reg := 0, 0, 0
	for _, s := range specs {
		switch {
		case s.Kind == Regression:
			reg++
		case s.Classes == 2:
			binary++
		default:
			multi++
		}
	}
	if binary != 8 || multi != 2 || reg != 2 {
		t.Fatalf("task mix %d/%d/%d, want 8/2/2", binary, multi, reg)
	}
}

func TestSpecByNameAndNames(t *testing.T) {
	specs := PaperSpecs()
	if len(specs) != 12 {
		t.Fatalf("PaperSpecs returned %d", len(specs))
	}
	for _, s := range specs {
		if got, err := SpecByName(s.Name); err != nil || got.Name != s.Name {
			t.Errorf("SpecByName(%q) = %q, %v", s.Name, got.Name, err)
		}
	}
	if _, err := SpecByName("nope"); err == nil {
		t.Error("expected error for unknown name")
	}
}

// TestSpecByNameSharesNothing: SpecByName answers from a table built once,
// and what it returns is the caller's own — a caller that writes into a
// spec's Priors changes neither the next answer nor PaperSpecs.
func TestSpecByNameSharesNothing(t *testing.T) {
	for _, want := range PaperSpecs() {
		got, err := SpecByName(want.Name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("SpecByName(%q) = %+v, %v; want %+v", want.Name, got, err, want)
		}
		for i := range got.Priors {
			got.Priors[i] = -1
		}
		if again, _ := SpecByName(want.Name); !reflect.DeepEqual(again, want) {
			t.Fatalf("a caller's write into %s's priors reached the table: %v", want.Name, again.Priors)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = SpecByName("australian") }); allocs != 0 {
		t.Fatalf("SpecByName of a balanced spec allocates %.0f times, want 0", allocs)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	spec, _ := SpecByName("australian")
	a1, b1 := MustSynthesize(spec, 7)
	a2, b2 := MustSynthesize(spec, 7)
	if a1.Len() != a2.Len() || b1.Len() != b2.Len() {
		t.Fatal("sizes differ across identical seeds")
	}
	for i := 0; i < a1.Len(); i++ {
		for j := 0; j < a1.Features(); j++ {
			if a1.X.At(i, j) != a2.X.At(i, j) {
				t.Fatalf("feature (%d,%d) differs", i, j)
			}
		}
		if a1.Class[i] != a2.Class[i] {
			t.Fatalf("class %d differs", i)
		}
	}
	c1, _ := MustSynthesize(spec, 8)
	diff := 0
	for i := 0; i < a1.Len() && i < c1.Len(); i++ {
		if a1.Class[i] != c1.Class[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical labels")
	}
}

func TestSynthesizeShapes(t *testing.T) {
	for _, spec := range PaperSpecs() {
		train, test := MustSynthesize(spec, 1)
		if train.Len() != spec.Train || test.Len() != spec.Test {
			t.Errorf("%s: sizes %d/%d, want %d/%d", spec.Name, train.Len(), test.Len(), spec.Train, spec.Test)
		}
		if train.Features() != spec.Features {
			t.Errorf("%s: features %d, want %d", spec.Name, train.Features(), spec.Features)
		}
		if err := train.Validate(); err != nil {
			t.Errorf("%s train: %v", spec.Name, err)
		}
		if err := test.Validate(); err != nil {
			t.Errorf("%s test: %v", spec.Name, err)
		}
	}
}

func TestSynthesizeImbalance(t *testing.T) {
	spec, _ := SpecByName("fraud")
	train, _ := MustSynthesize(spec, 3)
	counts := train.ClassCounts()
	minFrac := float64(counts[1]) / float64(train.Len())
	if minFrac > 0.06 || minFrac < 0.002 {
		t.Fatalf("fraud positive fraction %v, want ~0.02", minFrac)
	}
}

func TestSynthesizeBalanced(t *testing.T) {
	spec, _ := SpecByName("usps")
	train, _ := MustSynthesize(spec, 4)
	counts := train.ClassCounts()
	want := float64(train.Len()) / float64(spec.Classes)
	for c, cnt := range counts {
		if math.Abs(float64(cnt)-want) > want*0.35 {
			t.Fatalf("class %d count %d deviates from balanced %v", c, cnt, want)
		}
	}
}

func TestSynthesizeRegressionTargetsVary(t *testing.T) {
	spec, _ := SpecByName("kc-house")
	train, _ := MustSynthesize(spec, 5)
	mn, mx := train.Target[0], train.Target[0]
	for _, v := range train.Target {
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
	}
	if mx-mn < 1 {
		t.Fatalf("regression target range %v too narrow", mx-mn)
	}
}

func TestSynthesizeSignalLearnable(t *testing.T) {
	// Classes must be separable enough that a nearest-centroid rule beats
	// chance clearly — otherwise HPO experiments have no signal.
	spec, _ := SpecByName("australian")
	train, test := MustSynthesize(spec, 6)
	f := spec.Informative
	centroids := make([][]float64, spec.Classes)
	counts := make([]int, spec.Classes)
	for c := range centroids {
		centroids[c] = make([]float64, f)
	}
	for i := 0; i < train.Len(); i++ {
		c := train.Class[i]
		counts[c]++
		row := train.X.Row(i)
		for j := 0; j < f; j++ {
			centroids[c][j] += row[j]
		}
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := 0
	for i := 0; i < test.Len(); i++ {
		row := test.X.Row(i)
		best, bestD := 0, math.Inf(1)
		for c := range centroids {
			var d float64
			for j := 0; j < f; j++ {
				diff := row[j] - centroids[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		if best == test.Class[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(test.Len())
	if acc < 0.65 {
		t.Fatalf("nearest-centroid accuracy %v too low: no learnable signal", acc)
	}
}

func TestScaled(t *testing.T) {
	spec, _ := SpecByName("a9a")
	small := spec.Scaled(0.1)
	if small.Train != spec.Train/10 {
		t.Fatalf("scaled train %d", small.Train)
	}
	tiny := spec.Scaled(0.0001)
	if tiny.Train < 32 || tiny.Test < 16 {
		t.Fatalf("scaling floor violated: %d/%d", tiny.Train, tiny.Test)
	}
}

func TestSpecValidateRejectsBadSpecs(t *testing.T) {
	good, _ := SpecByName("australian")
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"zero train", func(s *Spec) { s.Train = 0 }},
		{"informative > features", func(s *Spec) { s.Informative = s.Features + 1 }},
		{"zero clusters", func(s *Spec) { s.Clusters = 0 }},
		{"one class", func(s *Spec) { s.Classes = 1 }},
		{"priors wrong len", func(s *Spec) { s.Priors = []float64{1} }},
		{"priors not normalized", func(s *Spec) { s.Priors = []float64{0.5, 0.2} }},
		{"negative prior", func(s *Spec) { s.Priors = []float64{1.5, -0.5} }},
	}
	for _, tc := range cases {
		s := good
		tc.mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, _, err := Synthesize(Spec{Name: "bad"}, 1); err == nil {
		t.Error("Synthesize accepted invalid spec")
	}
}

func TestStandardize(t *testing.T) {
	spec, _ := SpecByName("australian")
	train, test := MustSynthesize(spec, 9)
	Standardize(train, test)
	for j := 0; j < train.Features(); j++ {
		var mean, sq float64
		for i := 0; i < train.Len(); i++ {
			mean += train.X.At(i, j)
		}
		mean /= float64(train.Len())
		for i := 0; i < train.Len(); i++ {
			d := train.X.At(i, j) - mean
			sq += d * d
		}
		std := math.Sqrt(sq / float64(train.Len()))
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("column %d mean %v after standardize", j, mean)
		}
		if math.Abs(std-1) > 1e-9 {
			t.Fatalf("column %d std %v after standardize", j, std)
		}
	}
}
