package mat

import (
	"fmt"
	"sync"
)

// The SIMD family's matmul bodies. Every form is one tileRows sweep of
// the AVX2 tile kernels in simd_amd64.s: a 4-row destination tile stays
// in registers over the whole k loop and is stored once. Mul reads a
// along its rows and TMul down its columns (four contiguous values per
// k); MulT packs bᵀ row-major and runs as a Mul, as backprop's δ·Wᵀ
// does with the Wᵀ it packs itself (internal/nn). A tile element is
// +0 + p₀ + p₁ + … in ascending k, the order of the blocked kernels and
// the naive oracle, so the families are bitwise-equal; the property
// tests pin it. They are only dispatched to when simdAvailable.

// mulSIMD computes rows [i0, i1) of dst = a*b + bias (bias nil: a*b);
// the tiles add the bias as they store.
func mulSIMD(dst, a, b *Dense, bias []float64, i0, i1 int) {
	tileRows(dst, a.data, a.cols, 1, b, bias, i0, i1)
}

// tMulSIMD computes rows [i0, i1) of dst = aᵀ * b: row i of aᵀ is column
// i of a, so a tile's four a values per k are contiguous.
func tMulSIMD(dst, a, b *Dense, i0, i1 int) {
	tileRows(dst, a.data, 1, a.cols, b, nil, i0, i1)
}

// mulTSIMD computes rows [i0, i1) of dst = a * bᵀ as a times bᵀ packed
// row-major: the same products, summed in the same ascending-k order as
// the blocked kernel's dot products. The packed copy is borrowed from
// packs, so repeated calls allocate nothing.
func mulTSIMD(dst, a, b *Dense, i0, i1 int) {
	buf, _ := packs.Get().(*[]float64)
	if buf == nil || cap(*buf) < len(b.data) {
		buf = new([]float64)
		*buf = make([]float64, len(b.data))
	}
	bt := Dense{rows: b.cols, cols: b.rows, data: (*buf)[:len(b.data)]}
	transpose(bt.data, b.data, b.rows, b.cols)
	tileRows(dst, a.data, a.cols, 1, &bt, nil, i0, i1)
	packs.Put(buf)
}

// packs holds mulTSIMD's bᵀ buffers between calls.
var packs sync.Pool

// TransposeInto writes src's transpose into dst, which must be
// src.cols×src.rows, as backprop's packed Wᵀ is: a copy, so every bit
// is src's.
func TransposeInto(dst, src *Dense) {
	if dst.rows != src.cols || dst.cols != src.rows {
		panic(fmt.Sprintf("mat: transpose dst shape %dx%d, want %dx%d", dst.rows, dst.cols, src.cols, src.rows))
	}
	transpose(dst.data, src.data, src.rows, src.cols)
}

// transpose writes the rows×cols matrix src into dst as cols×rows: the
// whole 4×4 blocks with the AVX2 body where the CPU has it, the Go loop
// for the rest (and everything elsewhere).
func transpose(dst, src []float64, rows, cols int) {
	r4, c4 := 0, 0
	if simdAvailable && rows >= 4 && cols >= 4 {
		r4, c4 = rows&^3, cols&^3
		transposeavx(&dst[0], &src[0], uintptr(rows), uintptr(cols))
	}
	for j := 0; j < rows; j++ {
		k0 := 0
		if j < r4 {
			k0 = c4
		}
		for k, v := range src[j*cols+k0 : (j+1)*cols] {
			dst[(k0+k)*rows+j] = v
		}
	}
}

// tileRows computes rows [i0, i1) of dst = A*b + bias, where A(i, k) is
// a[i*rs + k*cs], four rows at a time: 8-column tiles across, then one
// 4-, 2- and 1-column tile for the rest. A nil bias adds nothing.
func tileRows(dst *Dense, a []float64, rs, cs int, b *Dense, bias []float64, i0, i1 int) {
	k, n := uintptr(b.rows), b.cols
	ucs, ldb := uintptr(cs), uintptr(n)
	// bp is a tile's bias columns, nil for none.
	bp := func(j int) *float64 {
		if bias == nil {
			return nil
		}
		return &bias[j]
	}
	for i := i0; i < i1; {
		ars, ldd, rows := uintptr(rs), ldb, 4
		switch {
		case i+4 <= i1:
		case i1-i0 >= 4:
			// The last tile ends at i1; the rows it shares with the
			// one before are computed again, to the same bits.
			i = i1 - 4
		default:
			// Zero row strides on a and dst compute row i four times
			// and store it four times in place.
			ars, ldd, rows = 0, 0, 1
		}
		ap, drow := &a[i*rs], dst.data[i*n:(i+1)*n]
		j := 0
		for ; j+8 <= n; j += 8 {
			tile4x8(ap, ars, ucs, &b.data[j], ldb, &drow[j], ldd, k, bp(j))
		}
		if j+4 <= n {
			tile4x4(ap, ars, ucs, &b.data[j], ldb, &drow[j], ldd, k, bp(j))
			j += 4
		}
		if j+2 <= n {
			tile4x2(ap, ars, ucs, &b.data[j], ldb, &drow[j], ldd, k, bp(j))
			j += 2
		}
		if j < n {
			tile4x1(ap, ars, ucs, &b.data[j], ldb, &drow[j], ldd, k, bp(j))
		}
		i += rows
	}
}
