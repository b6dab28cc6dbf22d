// Tuned matrix-multiplication kernels. Mul, MulT and TMul dispatch to a
// register-blocked implementation (4-wide unrolled inner loops with
// multiple independent accumulator chains), or to its AVX2 lift in
// kernels_simd.go where the CPU has it, and, above a size threshold, to
// a goroutine-parallel path that partitions *output rows* across
// workers. Three properties are deliberately engineered in:
//
//   - Bitwise determinism across worker counts. Every output row is
//     computed by the identical sequential row kernel regardless of how
//     rows are partitioned, so results are bit-for-bit the same for any
//     worker count. This is what lets the evaluation cache and the
//     deterministic parallel ASHA guarantee survive kernel parallelism.
//   - Bitwise agreement with the naive reference loops the tests hold
//     them against (NaiveMul/NaiveMulT/NaiveTMul) on finite inputs. The
//     unrolled loops keep each output element's additions in
//     ascending-k order — unrolling buys instruction-level parallelism
//     from *independent* element chains, never by splitting one
//     element's sum — and every product is passed through float64(·) so
//     implementations that fuse multiply-add (arm64, ppc64) cannot
//     introduce drift.
//   - No av == 0 branch in the dense path. The naive loops skip zero
//     multiplicands (profitable for sparse ReLU activations but a
//     mispredicted branch on dense data); the blocked kernels always
//     multiply. Adding av*bv with av == 0 contributes +0 or -0, and
//     IEEE-754 round-to-nearest addition of a signed zero never changes
//     a finite sum, so the skip is unobservable on finite data.
package mat

import (
	"runtime"
	"sync"
)

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

// parallelMinFlops is the multiply-add count below which the parallel
// path is never taken: partitioning costs two goroutine handoffs per
// worker (~µs), which only pays off once the sequential kernel runs for
// hundreds of µs. MLP-typical small batches (32×50×50 ≈ 80k flops) stay
// sequential; full-batch layers (256×200×200 ≈ 10M flops) partition.
const parallelMinFlops = 1 << 18

// resolveWorkers clamps a requested worker count against the machine,
// the row count and the problem size. workers <= 0 selects GOMAXPROCS.
func resolveWorkers(workers, rows, flops int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > rows {
		workers = rows
	}
	if workers <= 1 || flops < parallelMinFlops {
		return 1
	}
	return workers
}

// partitionRows runs f over [0, rows) split into contiguous chunks, one
// per worker. f must compute each row independently of the chunk bounds;
// that is what makes the output bitwise-identical for any worker count.
func partitionRows(rows, workers int, f func(i0, i1 int)) {
	if workers <= 1 {
		f(0, rows)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for i0 := 0; i0 < rows; i0 += chunk {
		i1 := i0 + chunk
		if i1 > rows {
			i1 = rows
		}
		wg.Add(1)
		go func(i0, i1 int) {
			defer wg.Done()
			f(i0, i1)
		}(i0, i1)
	}
	wg.Wait()
}

// Mul computes dst = a*b. dst must be a.rows×b.cols and distinct from a
// and b. It panics on shape mismatch. Parallelism defaults to GOMAXPROCS
// above the size threshold; use MulWorkers to cap it.
func Mul(dst, a, b *Dense) { MulWorkers(dst, a, b, 0) }

// MulWorkers is Mul with an explicit worker cap: 0 selects GOMAXPROCS, 1
// forces the sequential kernel. The result is bitwise-identical for any
// worker count.
func MulWorkers(dst, a, b *Dense, workers int) {
	checkMul(dst, a, b)
	f := mulRangeKernel()
	w := resolveWorkers(workers, a.rows, a.rows*a.cols*b.cols)
	if w <= 1 {
		// Direct call: the closure below captures and escapes, and the
		// sequential path must stay allocation-free for the zero-alloc
		// training loop.
		f(dst, a, b, 0, a.rows)
		return
	}
	partitionRows(a.rows, w, func(i0, i1 int) { f(dst, a, b, i0, i1) })
}

// rangeKernel computes a contiguous range of destination rows; every
// kernel family exposes its Mul/MulT/TMul bodies in this shape so the
// sequential path and every chunk of the row partitioner run the
// identical per-row code.
type rangeKernel func(dst, a, b *Dense, i0, i1 int)

func mulRangeKernel() rangeKernel {
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

// MulT computes dst = a * bᵀ. dst must be a.rows×b.rows. See MulTWorkers.
func MulT(dst, a, b *Dense) { MulTWorkers(dst, a, b, 0) }

// MulTWorkers is MulT with an explicit worker cap (0 = GOMAXPROCS).
func MulTWorkers(dst, a, b *Dense, workers int) {
	checkMulT(dst, a, b)
	f := mulTRangeKernel()
	w := resolveWorkers(workers, a.rows, a.rows*a.cols*b.rows)
	if w <= 1 {
		f(dst, a, b, 0, a.rows)
		return
	}
	partitionRows(a.rows, w, func(i0, i1 int) { f(dst, a, b, i0, i1) })
}

// TMul computes dst = aᵀ * b. dst must be a.cols×b.cols. See TMulWorkers.
func TMul(dst, a, b *Dense) { TMulWorkers(dst, a, b, 0) }

// TMulWorkers is TMul with an explicit worker cap (0 = GOMAXPROCS).
func TMulWorkers(dst, a, b *Dense, workers int) {
	checkTMul(dst, a, b)
	f := tMulRangeKernel()
	w := resolveWorkers(workers, a.cols, a.rows*a.cols*b.cols)
	if w <= 1 {
		f(dst, a, b, 0, a.cols)
		return
	}
	partitionRows(a.cols, w, func(i0, i1 int) { f(dst, a, b, i0, i1) })
}

// mulBlocked computes rows [i0, i1) of dst = a*b. The k loop is unrolled
// 4-wide so each pass reads four b rows and touches dst once (4× less
// dst traffic than the naive kernel), and the j loop is unrolled 4-wide
// so four independent accumulator chains keep the FPU pipeline full.
// Each element's additions stay in ascending-k order.
func mulBlocked(dst, a, b *Dense, i0, i1 int) {
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
