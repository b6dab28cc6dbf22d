package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewDenseAndAccessors(t *testing.T) {
	m := NewDense(2, 3)
	if r, c := m.Dims(); r != 2 || c != 3 {
		t.Fatalf("dims = %d,%d", r, c)
	}
	m.Set(1, 2, 5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("At = %v", got)
	}
	row := m.Row(1)
	row[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row is not a view")
	}
}

func TestNewDensePanics(t *testing.T) {
	assertPanics(t, "zero rows", func() { NewDense(0, 3) })
	assertPanics(t, "neg cols", func() { NewDense(2, -1) })
	assertPanics(t, "bad data len", func() { NewDenseData(2, 2, []float64{1, 2, 3}) })
}

func TestMulKnown(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 2, []float64{7, 8, 9, 10, 11, 12})
	dst := NewDense(2, 2)
	Mul(dst, a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(dst.Data()[i], w) {
			t.Fatalf("Mul[%d] = %v, want %v", i, dst.Data()[i], w)
		}
	}
}

func TestMulShapePanics(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 2)
	dst := NewDense(2, 2)
	assertPanics(t, "inner mismatch", func() { Mul(dst, a, b) })
	c := NewDense(3, 2)
	bad := NewDense(3, 3)
	assertPanics(t, "dst mismatch", func() { Mul(bad, a, c) })
	sq := NewDense(2, 2)
	sqB := NewDense(2, 2)
	assertPanics(t, "aliased dst", func() { Mul(sq, sq, sqB) })
}

func TestMulTMatchesMulWithTranspose(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, -1, 2, 0, 3, 1})
	b := NewDenseData(4, 3, []float64{2, 1, 0, 1, 1, 1, -1, 0, 2, 3, 2, 1})
	got := NewDense(2, 4)
	MulT(got, a, b)
	want := NewDense(2, 4)
	Mul(want, a, b.T())
	for i := range got.Data() {
		if !almostEq(got.Data()[i], want.Data()[i]) {
			t.Fatalf("MulT[%d] = %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestTMulMatchesTransposeMul(t *testing.T) {
	a := NewDenseData(3, 2, []float64{1, 2, 3, 4, 5, 6})
	b := NewDenseData(3, 4, []float64{1, 0, 1, 0, 2, 1, 0, 1, 1, 1, 1, 1})
	got := NewDense(2, 4)
	TMul(got, a, b)
	want := NewDense(2, 4)
	Mul(want, a.T(), b)
	for i := range got.Data() {
		if !almostEq(got.Data()[i], want.Data()[i]) {
			t.Fatalf("TMul[%d] = %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(vals [12]float64) bool {
		m := NewDenseData(3, 4, vals[:])
		tt := m.T().T()
		for i := range m.Data() {
			if m.Data()[i] != tt.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewDenseData(2, 2, []float64{1, 2, 3, 4})
	b := NewDenseData(2, 2, []float64{5, 6, 7, 8})
	a.AddScaled(b, 1)
	if a.At(0, 0) != 6 || a.At(1, 1) != 12 {
		t.Fatalf("AddScaled wrong: %v", a.Data())
	}
	a.Sub(b)
	if a.At(0, 0) != 1 || a.At(1, 1) != 4 {
		t.Fatalf("Sub wrong: %v", a.Data())
	}
	a.Scale(2)
	if a.At(0, 1) != 4 {
		t.Fatalf("Scale wrong: %v", a.Data())
	}
}

func TestDotAxpyNorms(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	if y[2] != 7 {
		t.Fatalf("Axpy wrong: %v", y)
	}
	if !almostEq(Norm2([]float64{3, 4}), 5) {
		t.Fatal("Norm2 wrong")
	}
	if got := SqDist(a, b); got != 27 {
		t.Fatalf("SqDist = %v", got)
	}
	assertPanics(t, "dot mismatch", func() { Dot(a, []float64{1}) })
	assertPanics(t, "axpy mismatch", func() { Axpy(1, a, []float64{1}) })
	assertPanics(t, "sqdist mismatch", func() { SqDist(a, []float64{1}) })
}

func TestSqDistNonNegativeAndSymmetric(t *testing.T) {
	f := func(a, b [5]float64) bool {
		av := make([]float64, 5)
		bv := make([]float64, 5)
		for i := range av {
			// Bound inputs so squared differences cannot overflow.
			av[i] = math.Mod(a[i], 1e6)
			bv[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(av[i]) || math.IsNaN(bv[i]) {
				return true
			}
		}
		d1 := SqDist(av, bv)
		d2 := SqDist(bv, av)
		return d1 >= 0 && almostEq(d1, d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddRowVectorColSums adds a row vector the way the forward pass
// does, as MulBias's bias (against the identity, so the product is the
// matrix itself), and sums the columns back.
func TestAddRowVectorColSums(t *testing.T) {
	a := NewDenseData(2, 3, []float64{1, 2, 3, 4, 5, 6})
	id := NewDenseData(3, 3, []float64{1, 0, 0, 0, 1, 0, 0, 0, 1})
	m := NewDense(2, 3)
	MulBias(m, a, id, []float64{10, 20, 30})
	if m.At(1, 2) != 36 {
		t.Fatalf("row vector add wrong: %v", m.Data())
	}
	sums := make([]float64, 3)
	ColSumsInto(sums, m)
	if sums[0] != 11+14 || sums[2] != 33+36 {
		t.Fatalf("ColSums wrong: %v", sums)
	}
	assertPanics(t, "row vector mismatch", func() { MulBias(m, a, id, []float64{1}) })
}

func TestAddScaledShapePanic(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 3)
	assertPanics(t, "shape mismatch", func() { a.AddScaled(b, 1) })
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
