// Tuned matrix-multiplication kernels. Mul, MulT and TMul run one of two
// families over every destination row on the caller's goroutine: the
// register-blocked Go loops below (4-wide unrolled inner loops with
// multiple independent accumulator chains), or, where the CPU has AVX2,
// the tile family of kernels_simd.go, which holds a 4-row destination
// tile in registers over the whole k loop and serves MulT by packing bᵀ.
// Two properties are deliberately engineered in:
//
//   - Bitwise agreement with the naive reference loops the tests hold
//     them against (NaiveMul/NaiveMulT/NaiveTMul) on finite inputs. Both
//     families keep each output element's additions in ascending-k
//     order, starting from +0 — unrolling and tiling buy
//     instruction-level parallelism from *independent* element chains,
//     never by splitting one element's sum — and every product is
//     passed through float64(·) so implementations that fuse
//     multiply-add (arm64, ppc64) cannot introduce drift.
//   - No av == 0 branch in the dense path. The naive loops skip zero
//     multiplicands (profitable for sparse ReLU activations but a
//     mispredicted branch on dense data); the blocked kernels always
//     multiply. Adding av*bv with av == 0 contributes +0 or -0, and
//     IEEE-754 round-to-nearest addition of a signed zero never changes
//     a finite sum, so the skip is unobservable on finite data.
package mat

import "fmt"

// Kernel names the matmul family this process runs: "simd" where the
// CPU and OS support AVX2 (decided once, at package init, by the CPUID
// probe), "blocked" otherwise and in -tags purego builds. The families
// are bitwise-equal, so the choice changes speed, never a result.
func Kernel() string {
	if simdAvailable {
		return "simd"
	}
	return "blocked"
}

// Mul computes dst = a*b. dst must be a.rows×b.cols and distinct from a
// and b. It panics on shape mismatch.
func Mul(dst, a, b *Dense) {
	checkMul(dst, a, b)
	mulRangeKernel()(dst, a, b, nil, 0, a.rows)
}

// MulBias computes dst = a*b + bias, bias added to every row: a layer's
// forward product and its bias in one pass. Each element is its Mul sum
// plus bias[j], one rounding, as adding the bias to Mul's result would
// give. bias must have b.cols elements.
func MulBias(dst, a, b *Dense, bias []float64) {
	checkMul(dst, a, b)
	if len(bias) != b.cols {
		panic(fmt.Sprintf("mat: bias length %d != cols %d", len(bias), b.cols))
	}
	mulRangeKernel()(dst, a, b, bias, 0, a.rows)
}

// MulT computes dst = a * bᵀ. dst must be a.rows×b.rows.
func MulT(dst, a, b *Dense) {
	checkMulT(dst, a, b)
	mulTRangeKernel()(dst, a, b, 0, a.rows)
}

// TMul computes dst = aᵀ * b. dst must be a.cols×b.cols.
func TMul(dst, a, b *Dense) {
	checkTMul(dst, a, b)
	tMulRangeKernel()(dst, a, b, 0, a.cols)
}

// MulWorkers, MulTWorkers and TMulWorkers are Mul, MulT and TMul;
// workers is ignored. They stay only because the benchmark module calls
// them, until ROADMAP item 4 deletes them.
func MulWorkers(dst, a, b *Dense, workers int)  { Mul(dst, a, b) }
func MulTWorkers(dst, a, b *Dense, workers int) { MulT(dst, a, b) }
func TMulWorkers(dst, a, b *Dense, workers int) { TMul(dst, a, b) }

// rangeKernel computes a contiguous range of destination rows; every
// kernel family exposes its Mul/MulT/TMul bodies in this shape, and the
// tests call them over split ranges to show no row depends on another.
type rangeKernel func(dst, a, b *Dense, i0, i1 int)

// biasKernel is a rangeKernel of dst = a*b + bias; a nil bias adds
// nothing, not even +0 (which would turn a −0 element into +0).
type biasKernel func(dst, a, b *Dense, bias []float64, i0, i1 int)

func mulRangeKernel() biasKernel {
	if simdAvailable {
		return mulSIMD
	}
	return mulBlocked
}

func mulTRangeKernel() rangeKernel {
	if simdAvailable {
		return mulTSIMD
	}
	return mulTBlocked
}

func tMulRangeKernel() rangeKernel {
	if simdAvailable {
		return tMulSIMD
	}
	return tMulBlocked
}

// mulBlocked computes rows [i0, i1) of dst = a*b + bias (bias nil: a*b).
// The k loop is unrolled 4-wide so each pass reads four b rows and
// touches dst once (4× less dst traffic than the naive kernel), and the
// j loop is unrolled 4-wide so four independent accumulator chains keep
// the FPU pipeline full. Each element's additions stay in ascending-k
// order; the bias is added last, while the row is still in cache.
func mulBlocked(dst, a, b *Dense, bias []float64, i0, i1 int) {
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
			a0, a1, a2, a3 := arow[k], arow[k+1], arow[k+2], arow[k+3]
			// Re-slicing each b row to len(drow) lets the compiler prove
			// every index below in bounds (one check per row per block
			// instead of four per element).
			b0 := bd[k*n : k*n+n][:len(drow)]
			b1 := bd[(k+1)*n : (k+1)*n+n][:len(drow)]
			b2 := bd[(k+2)*n : (k+2)*n+n][:len(drow)]
			b3 := bd[(k+3)*n : (k+3)*n+n][:len(drow)]
			for j := range drow {
				d := drow[j]
				d += float64(a0 * b0[j])
				d += float64(a1 * b1[j])
				d += float64(a2 * b2[j])
				d += float64(a3 * b3[j])
				drow[j] = d
			}
		}
		for ; k < kDim; k++ {
			av := arow[k]
			brow := bd[k*n : k*n+n][:len(drow)]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
		if bias != nil {
			for j, bv := range bias[:len(drow)] {
				drow[j] += bv
			}
		}
	}
}

// mulTBlocked computes rows [i0, i1) of dst = a * bᵀ. Four dot products
// against consecutive b rows share one pass over a's row; each keeps its
// own single accumulator, so the per-element order matches naive Dot
// while the four independent chains hide FP-add latency.
func mulTBlocked(dst, a, b *Dense, i0, i1 int) {
	kDim, n := a.cols, b.rows
	bd := b.data
	for i := i0; i < i1; i++ {
		arow := a.data[i*kDim : (i+1)*kDim : (i+1)*kDim]
		drow := dst.data[i*n : i*n+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := bd[j*kDim : (j+1)*kDim : (j+1)*kDim]
			b1 := bd[(j+1)*kDim : (j+2)*kDim : (j+2)*kDim]
			b2 := bd[(j+2)*kDim : (j+3)*kDim : (j+3)*kDim]
			b3 := bd[(j+3)*kDim : (j+4)*kDim : (j+4)*kDim]
			var s0, s1, s2, s3 float64
			for k, av := range arow {
				s0 += float64(av * b0[k])
				s1 += float64(av * b1[k])
				s2 += float64(av * b2[k])
				s3 += float64(av * b3[k])
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
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

// tMulBlocked computes rows [i0, i1) of dst = aᵀ * b. Row i of dst is
// the aᵀ-row i (column i of a) combined with all of b; unrolling k
// 4-wide reads four a column entries and four b rows per pass over the
// destination row, with the same ascending-k per-element order as the
// naive kernel.
func tMulBlocked(dst, a, b *Dense, i0, i1 int) {
	kDim, p, n := a.rows, a.cols, b.cols
	ad, bd := a.data, b.data
	for i := i0; i < i1; i++ {
		drow := dst.data[i*n : i*n+n : i*n+n]
		for j := range drow {
			drow[j] = 0
		}
		k := 0
		for ; k+4 <= kDim; k += 4 {
			a0 := ad[k*p+i]
			a1 := ad[(k+1)*p+i]
			a2 := ad[(k+2)*p+i]
			a3 := ad[(k+3)*p+i]
			// Same bounds-check-elimination re-slice as mulBlocked.
			b0 := bd[k*n : k*n+n][:len(drow)]
			b1 := bd[(k+1)*n : (k+1)*n+n][:len(drow)]
			b2 := bd[(k+2)*n : (k+2)*n+n][:len(drow)]
			b3 := bd[(k+3)*n : (k+3)*n+n][:len(drow)]
			for j := range drow {
				d := drow[j]
				d += float64(a0 * b0[j])
				d += float64(a1 * b1[j])
				d += float64(a2 * b2[j])
				d += float64(a3 * b3[j])
				drow[j] = d
			}
		}
		for ; k < kDim; k++ {
			av := ad[k*p+i]
			brow := bd[k*n : k*n+n][:len(drow)]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
}
