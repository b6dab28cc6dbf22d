package mat

// SIMD row-range drivers: the same loop structure as the blocked kernels
// with the innermost sweeps replaced by the AVX2 microkernels from
// simd_amd64.s. Per-element accumulation order is identical, so these
// are bitwise-equal to the blocked and naive kernels; parity is pinned
// by the property tests. They are only dispatched to when simdAvailable
// (kernel dispatch normalizes SIMD→Blocked otherwise).

// mulSIMD computes rows [i0, i1) of dst = a*b.
func mulSIMD(dst, a, b *Dense, i0, i1 int) {
	kDim, n := a.cols, b.cols
	bd := b.data
	for i := i0; i < i1; i++ {
		arow := a.data[i*kDim : (i+1)*kDim]
		drow := dst.data[i*n : i*n+n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kDim; k += 4 {
			axpy4avx(arow[k], arow[k+1], arow[k+2], arow[k+3],
				&bd[k*n], uintptr(n), &drow[0], uintptr(n))
		}
		for ; k < kDim; k++ {
			axpy1avx(arow[k], &bd[k*n], &drow[0], uintptr(n))
		}
	}
}

// mulTSIMD computes rows [i0, i1) of dst = a * bᵀ: four dot products per
// dot4avx call (one per lane), with the k tail beyond n&^3 finished here
// so each lane's chain continues in ascending-k order.
func mulTSIMD(dst, a, b *Dense, i0, i1 int) {
	kDim, n := a.cols, b.rows
	bd := b.data
	k4 := kDim &^ 3
	for i := i0; i < i1; i++ {
		arow := a.data[i*kDim : (i+1)*kDim : (i+1)*kDim]
		drow := dst.data[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			dot4avx(&arow[0], &bd[j*kDim], uintptr(kDim), uintptr(kDim), &drow[j])
			if k4 < kDim {
				b0 := bd[j*kDim : (j+1)*kDim : (j+1)*kDim]
				b1 := bd[(j+1)*kDim : (j+2)*kDim : (j+2)*kDim]
				b2 := bd[(j+2)*kDim : (j+3)*kDim : (j+3)*kDim]
				b3 := bd[(j+3)*kDim : (j+4)*kDim : (j+4)*kDim]
				s0, s1, s2, s3 := drow[j], drow[j+1], drow[j+2], drow[j+3]
				for k := k4; k < kDim; k++ {
					av := arow[k]
					s0 += float64(av * b0[k])
					s1 += float64(av * b1[k])
					s2 += float64(av * b2[k])
					s3 += float64(av * b3[k])
				}
				drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < n; j++ {
			brow := bd[j*kDim : (j+1)*kDim : (j+1)*kDim]
			var s float64
			for k, av := range arow {
				s += float64(av * brow[k])
			}
			drow[j] = s
		}
	}
}

// tMulSIMD computes rows [i0, i1) of dst = aᵀ * b (row i of dst is
// column i of a against all of b), with the same axpy microkernels as
// mulSIMD and the a values gathered down column i.
func tMulSIMD(dst, a, b *Dense, i0, i1 int) {
	kDim, p, n := a.rows, a.cols, b.cols
	ad, bd := a.data, b.data
	for i := i0; i < i1; i++ {
		drow := dst.data[i*n : i*n+n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kDim; k += 4 {
			axpy4avx(ad[k*p+i], ad[(k+1)*p+i], ad[(k+2)*p+i], ad[(k+3)*p+i],
				&bd[k*n], uintptr(n), &drow[0], uintptr(n))
		}
		for ; k < kDim; k++ {
			axpy1avx(ad[k*p+i], &bd[k*n], &drow[0], uintptr(n))
		}
	}
}
