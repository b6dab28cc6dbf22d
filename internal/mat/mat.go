// Package mat provides small dense linear-algebra kernels used by the
// neural-network and clustering substrates. All storage is row-major
// float64. The package is deliberately minimal: it implements exactly the
// operations the rest of the repository needs, with bounds-checked
// constructors and panic-free arithmetic on matching shapes.
package mat

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows×cols zero matrix.
// It panics if rows or cols is not positive.
func NewDense(rows, cols int) *Dense {
	checkDims(rows, cols)
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseData wraps data (length rows*cols, row-major) without copying.
// It panics on a length mismatch.
func NewDenseData(rows, cols int, data []float64) *Dense {
	checkData(rows, cols, data)
	return &Dense{rows: rows, cols: cols, data: data}
}

func checkDims(rows, cols int) {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
}

func checkData(rows, cols int, data []float64) {
	checkDims(rows, cols)
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
}

// Dims returns the matrix dimensions.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Row returns a view of row i. Mutating the returned slice mutates the matrix.
func (m *Dense) Row(i int) []float64 { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the backing slice (row-major).
func (m *Dense) Data() []float64 { return m.data }

// Scale multiplies every element by s in place.
func (m *Dense) Scale(s float64) {
	for i := range m.data {
		m.data[i] *= s
	}
}

// AddScaled adds s*other to m in place. Shapes must match.
func (m *Dense) AddScaled(other *Dense, s float64) {
	mustSameShape(m, other)
	for i, v := range other.data {
		m.data[i] += s * v
	}
}

// Sub subtracts other from m in place. Shapes must match.
func (m *Dense) Sub(other *Dense) { m.AddScaled(other, -1) }

func mustSameShape(a, b *Dense) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("mat: shape mismatch %dx%d vs %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
}

// checkMul validates the operand shapes of dst = a*b.
func checkMul(dst, a, b *Dense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("mat: mul inner mismatch %dx%d * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: mul dst shape %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.cols))
	}
	if dst == a || dst == b {
		panic("mat: mul destination aliases an operand")
	}
}

// checkMulT validates the operand shapes of dst = a * bᵀ.
func checkMulT(dst, a, b *Dense) {
	if a.cols != b.cols {
		panic(fmt.Sprintf("mat: mulT inner mismatch %dx%d * (%dx%d)ᵀ", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.rows || dst.cols != b.rows {
		panic(fmt.Sprintf("mat: mulT dst shape %dx%d, want %dx%d", dst.rows, dst.cols, a.rows, b.rows))
	}
	if dst == a || dst == b {
		panic("mat: mulT destination aliases an operand")
	}
}

// checkTMul validates the operand shapes of dst = aᵀ * b.
func checkTMul(dst, a, b *Dense) {
	if a.rows != b.rows {
		panic(fmt.Sprintf("mat: tmul inner mismatch (%dx%d)ᵀ * %dx%d", a.rows, a.cols, b.rows, b.cols))
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		panic(fmt.Sprintf("mat: tmul dst shape %dx%d, want %dx%d", dst.rows, dst.cols, a.cols, b.cols))
	}
	if dst == a || dst == b {
		panic("mat: tmul destination aliases an operand")
	}
}

// Dot returns the inner product of equal-length vectors a and b. The
// float64 conversion forces per-step rounding so implementations that
// fuse multiply-add cannot change the result across platforms.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Axpy computes y += alpha*x for equal-length vectors, with the AVX2
// body where the CPU has it (the Go loop is the reference; see
// elementwise.go).
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if len(x) == 0 {
		return
	}
	if simdAvailable {
		axpyavx(&x[0], &y[0], uintptr(len(x)), alpha)
		return
	}
	axpyGo(alpha, x, y)
}

// axpyGo is Axpy's reference loop.
func axpyGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// SqDist returns the squared Euclidean distance between equal-length vectors.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: sqdist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// Scale multiplies every element of v by s in place, with the AVX2 body
// where the CPU has it.
func Scale(s float64, v []float64) {
	if len(v) == 0 {
		return
	}
	if simdAvailable {
		scaleavx(&v[0], uintptr(len(v)), s)
		return
	}
	scaleGo(s, v)
}

// scaleGo is Scale's reference loop.
func scaleGo(s float64, v []float64) {
	for i := range v {
		v[i] *= s
	}
}

// ColSumsInto writes the per-column sums of m into out, which must have
// length m.cols.
func ColSumsInto(out []float64, m *Dense) {
	if len(out) != m.cols {
		panic(fmt.Sprintf("mat: col sums dst length %d != cols %d", len(out), m.cols))
	}
	for j := range out {
		out[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out[j] += v
		}
	}
}
