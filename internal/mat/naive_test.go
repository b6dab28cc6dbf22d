package mat

// The naive matmul loops: the oracle the kernel families are held
// against, bit for bit. Production never dispatches to them.

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			out.data[j*m.rows+i] = v
		}
	}
	return out
}

// Fill sets every element to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Zero sets every element to 0.
func (m *Dense) Zero() { m.Fill(0) }

// NaiveMul is the pre-tuning reference kernel for dst = a*b (sequential
// ikj loop with the zero-multiplicand skip).
func NaiveMul(dst, a, b *Dense) {
	checkMul(dst, a, b)
	naiveMul(dst, a, b)
}

func naiveMul(dst, a, b *Dense) {
	dst.Zero()
	// ikj loop order keeps the inner loop streaming over contiguous rows.
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
}

// NaiveMulT is the pre-tuning reference kernel for dst = a * bᵀ
// (row-by-row dot products).
func NaiveMulT(dst, a, b *Dense) {
	checkMulT(dst, a, b)
	naiveMulT(dst, a, b)
}

func naiveMulT(dst, a, b *Dense) {
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.rows; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}

// NaiveTMul is the pre-tuning reference kernel for dst = aᵀ * b.
func NaiveTMul(dst, a, b *Dense) {
	checkTMul(dst, a, b)
	naiveTMul(dst, a, b)
}

func naiveTMul(dst, a, b *Dense) {
	dst.Zero()
	for k := 0; k < a.rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
}
