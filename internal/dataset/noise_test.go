package dataset

import (
	"math"
	"testing"

	"enhancedbhpo/internal/rng"
)

func TestCorruptLabelsRate(t *testing.T) {
	spec, _ := SpecByName("usps")
	spec = spec.Scaled(0.5)
	d, _ := MustSynthesize(spec, 41)
	r := rng.New(42)
	rate := 0.2
	noisy := d.CorruptLabels(r, rate)
	if noisy.Len() != d.Len() {
		t.Fatalf("size changed: %d", noisy.Len())
	}
	changed := 0
	for i := range d.Class {
		if noisy.Class[i] != d.Class[i] {
			changed++
		}
	}
	got := float64(changed) / float64(d.Len())
	if math.Abs(got-rate) > 0.05 {
		t.Fatalf("corruption rate %v, want ~%v", got, rate)
	}
	// Original untouched.
	for i := 0; i < d.Len(); i++ {
		if d.Class[i] < 0 || d.Class[i] >= d.NumClasses {
			t.Fatal("original labels mutated")
		}
	}
	// Labels stay in range and corrupted ones genuinely differ.
	if err := noisy.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptLabelsZeroRateIsCopy(t *testing.T) {
	spec, _ := SpecByName("australian")
	spec = spec.Scaled(0.2)
	d, _ := MustSynthesize(spec, 43)
	noisy := d.CorruptLabels(rng.New(1), 0)
	for i := range d.Class {
		if noisy.Class[i] != d.Class[i] {
			t.Fatal("zero-rate corruption changed labels")
		}
	}
	// Independent storage.
	noisy.Class[0] = (noisy.Class[0] + 1) % d.NumClasses
	if d.Class[0] == noisy.Class[0] && d.Class[1] == noisy.Class[1] {
		// Only fails if aliased; check explicitly:
		t.Log("labels coincide after mutation; verifying storage independence")
	}
	noisy.X.Set(0, 0, 12345)
	if d.X.At(0, 0) == 12345 {
		t.Fatal("feature storage aliased")
	}
}

func TestCorruptLabelsPanics(t *testing.T) {
	spec, _ := SpecByName("kc-house")
	spec = spec.Scaled(0.05)
	reg, _ := MustSynthesize(spec, 44)
	assertPanics(t, "regression", func() { reg.CorruptLabels(rng.New(1), 0.1) })
	cls := smallClassification()
	assertPanics(t, "bad rate", func() { cls.CorruptLabels(rng.New(1), 1.5) })
}
