package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v", got)
	}
	if got := Variance(xs); got != 4 {
		t.Fatalf("Variance = %v", got)
	}
	if got := StdDev(xs); got != 2 {
		t.Fatalf("StdDev = %v", got)
	}
}

func TestEmptyAndSingleton(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if Variance([]float64{3}) != 0 {
		t.Error("Variance singleton != 0")
	}
	if SampleStdDev([]float64{3}) != 0 {
		t.Error("SampleStdDev singleton != 0")
	}
}

func TestSampleStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	want := math.Sqrt(32.0 / 7.0)
	if got := SampleStdDev(xs); !almostEq(got, want, 1e-12) {
		t.Fatalf("SampleStdDev = %v, want %v", got, want)
	}
	m, s := MeanStd(xs)
	if m != 5 || !almostEq(s, want, 1e-12) {
		t.Fatalf("MeanStd = %v, %v", m, s)
	}
}

// welford accumulates mean and variance online, one sample at a time:
// an independent oracle for the batch Mean and Variance.
type welford struct {
	n    int
	mean float64
	m2   float64
}

func (w *welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) Mean() float64 { return w.mean }

func (w *welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

func TestWelfordMatchesBatch(t *testing.T) {
	f := func(vals [16]float64) bool {
		var w welford
		for _, v := range vals {
			// Bound extreme generated values for numeric sanity.
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			w.Add(math.Mod(v, 1e6))
		}
		xs := make([]float64, len(vals))
		for i, v := range vals {
			xs[i] = math.Mod(v, 1e6)
		}
		scale := math.Max(1, math.Abs(Mean(xs)))
		return almostEq(w.Mean(), Mean(xs), 1e-6*scale) &&
			almostEq(w.Variance(), Variance(xs), 1e-4*math.Max(1, Variance(xs))) &&
			w.n == len(vals)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		for _, v := range xs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, n := range []int{1, 5, 20, 60} {
		for _, p := range []float64{0.1, 0.5, 0.9} {
			var sum float64
			for k := 0; k <= n; k++ {
				pmf := BinomialPMF(k, n, p)
				if pmf < 0 {
					t.Fatalf("negative PMF at k=%d n=%d p=%v", k, n, p)
				}
				sum += pmf
			}
			if !almostEq(sum, 1, 1e-9) {
				t.Fatalf("PMF sums to %v for n=%d p=%v", sum, n, p)
			}
		}
	}
}

func TestBinomialPMFKnown(t *testing.T) {
	// Binomial(4, 0.5): P[X=2] = 6/16.
	if got := BinomialPMF(2, 4, 0.5); !almostEq(got, 0.375, 1e-12) {
		t.Fatalf("PMF(2;4,0.5) = %v", got)
	}
	if BinomialPMF(-1, 4, 0.5) != 0 || BinomialPMF(5, 4, 0.5) != 0 {
		t.Fatal("out-of-support PMF not 0")
	}
	if BinomialPMF(0, 4, 0) != 1 || BinomialPMF(4, 4, 1) != 1 {
		t.Fatal("degenerate p handling wrong")
	}
}

func TestTwoGroupPMFEpsZeroMatchesBinomial(t *testing.T) {
	// With ε = 0 the two-group convolution is exactly Binomial(n, p).
	n, p := 20, 0.4
	for x := 0; x <= n; x++ {
		got := TwoGroupPMF(x, n, p, 0)
		want := BinomialPMF(x, n, p)
		if !almostEq(got, want, 1e-9) {
			t.Fatalf("x=%d: two-group %v vs binomial %v", x, got, want)
		}
	}
	assertPanics(t, "odd n", func() { TwoGroupPMF(1, 5, 0.5, 0.1) })
}

func TestTwoGroupPMFSumsToOne(t *testing.T) {
	n, p, eps := 24, 0.5, 0.3
	var sum float64
	for x := 0; x <= n; x++ {
		sum += TwoGroupPMF(x, n, p, eps)
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Fatalf("two-group PMF sums to %v", sum)
	}
}

func TestRepresentativeMassIncreasesWithEps(t *testing.T) {
	// Proposition 1: group sampling (larger ε up to p) concentrates more
	// mass on representative subsets than random sampling (ε = 0).
	n, p := 40, 0.5
	random := RepresentativeMass(n, p, 0, 1)
	grouped := RepresentativeMass(n, p, p, 1) // ε = p: perfectly separated groups
	if grouped <= random {
		t.Fatalf("grouped mass %v not above random mass %v", grouped, random)
	}
	// ε = p puts all mass exactly on n·p.
	exact := TwoGroupPMF(n/2, n, p, p)
	if !almostEq(exact, 1, 1e-9) {
		t.Fatalf("ε=p mass at n·p = %v", exact)
	}
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	f()
}
