package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 matched %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	s1 := parent.Split(1)
	s2 := parent.Split(2)
	s1again := parent.Split(1)
	if s1.Uint64() != s1again.Uint64() {
		t.Fatal("Split(1) not deterministic")
	}
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("Split(1) and Split(2) coincide suspiciously")
	}
	// Splitting must not advance the parent.
	p1 := New(7)
	_ = p1.Split(3)
	p2 := New(7)
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean %v far from 0.5", mean)
	}
}

func TestIntnRangeAndUniformity(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for b, c := range counts {
		if math.Abs(float64(c)-n/7) > n/7*0.1 {
			t.Fatalf("bucket %d count %d deviates >10%% from uniform", b, c)
		}
	}
	assertPanics(t, "Intn(0)", func() { r.Intn(0) })
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	var sum, sumSq float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		p := r.Perm(20)
		seen := make([]bool, 20)
		for _, v := range p {
			if v < 0 || v >= 20 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleDistinctInRange(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		for _, k := range []int{0, 1, 3, 10, 50, 100} {
			s := r.Sample(100, k)
			if len(s) != k {
				return false
			}
			seen := map[int]bool{}
			for _, v := range s {
				if v < 0 || v >= 100 || seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
	r := New(1)
	assertPanics(t, "Sample k>n", func() { r.Sample(3, 4) })
	assertPanics(t, "Sample k<0", func() { r.Sample(3, -1) })
}

func TestSampleCoversAllElements(t *testing.T) {
	// Floyd path (k*4 < n) must be able to return every index.
	r := New(9)
	hit := make([]bool, 40)
	for i := 0; i < 3000; i++ {
		for _, v := range r.Sample(40, 5) {
			hit[v] = true
		}
	}
	for i, h := range hit {
		if !h {
			t.Fatalf("index %d never sampled", i)
		}
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := New(8)
	counts := [3]int{}
	const n = 60000
	for i := 0; i < n; i++ {
		counts[r.Choice([]float64{1, 2, 3})]++
	}
	total := float64(n)
	for i, want := range []float64{1.0 / 6, 2.0 / 6, 3.0 / 6} {
		got := float64(counts[i]) / total
		if math.Abs(got-want) > 0.02 {
			t.Fatalf("weight %d: got %v want %v", i, got, want)
		}
	}
	assertPanics(t, "negative weight", func() { r.Choice([]float64{1, -1}) })
	assertPanics(t, "all zero", func() { r.Choice([]float64{0, 0}) })
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(10)
	s := []int{1, 2, 2, 3, 5, 5, 5}
	orig := append([]int(nil), s...)
	r.Shuffle(s)
	counts := map[int]int{}
	for _, v := range s {
		counts[v]++
	}
	for _, v := range orig {
		counts[v]--
	}
	for k, c := range counts {
		if c != 0 {
			t.Fatalf("element %d count off by %d", k, c)
		}
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

func TestFingerprint(t *testing.T) {
	a, b := New(7), New(7)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identically seeded generators have different fingerprints")
	}
	if New(7).Split(3).Fingerprint() != New(7).Split(3).Fingerprint() {
		t.Fatal("identical split chains have different fingerprints")
	}
	// Fingerprint must not advance the stream.
	before := a.Fingerprint()
	_ = a.Fingerprint()
	if a.Uint64() != b.Uint64() {
		t.Fatal("Fingerprint advanced the generator")
	}
	_ = before
	// Distinct seeds and distinct split tags should (essentially always)
	// give distinct fingerprints.
	seen := map[uint64]bool{}
	for seed := uint64(0); seed < 100; seed++ {
		fp := New(seed).Fingerprint()
		if seen[fp] {
			t.Fatalf("fingerprint collision at seed %d", seed)
		}
		seen[fp] = true
	}
	for tag := uint64(0); tag < 100; tag++ {
		fp := New(1).Split(tag).Fingerprint()
		if seen[fp] {
			t.Fatalf("fingerprint collision at split tag %d", tag)
		}
		seen[fp] = true
	}
	// A generator that has advanced has a different state fingerprint.
	c := New(7)
	c.Uint64()
	if c.Fingerprint() == New(7).Fingerprint() {
		t.Fatal("advanced generator kept the same fingerprint")
	}
}

// TestFillUniformMatchesFloat64Loop holds FillUniform to the loop it
// replaces: the same values in the same order, bit for bit, and the
// generator left in the same state (spare normal included), so the next
// draw agrees too.
func TestFillUniformMatchesFloat64Loop(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 6000} {
		for _, bound := range []float64{1, 0.0316, math.Sqrt(6.0 / 173)} {
			a, b := New(uint64(900+n)), New(uint64(900+n))
			a.Norm() // leaves a spare normal pending in both
			b.Norm()
			got := make([]float64, n)
			a.FillUniform(got, bound)
			for i := range got {
				want := (2*b.Float64() - 1) * bound
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d bound=%v: element %d = %v, the Float64 loop %v", n, bound, i, got[i], want)
				}
			}
			if *a != *b {
				t.Fatalf("n=%d bound=%v: state %+v after the fill, the Float64 loop %+v", n, bound, *a, *b)
			}
			if a.Norm() != b.Norm() || a.Uint64() != b.Uint64() {
				t.Fatalf("n=%d bound=%v: the next draws differ", n, bound)
			}
		}
	}
}
