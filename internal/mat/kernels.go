// Tuned matrix-multiplication kernels. Mul, MulT and TMul dispatch to a
// register-blocked implementation (4-wide unrolled inner loops with
// multiple independent accumulator chains) and, above a size threshold,
// to a goroutine-parallel path that partitions *output rows* across
// workers. Three properties are deliberately engineered in:
//
//   - Bitwise determinism across worker counts. Every output row is
//     computed by the identical sequential row kernel regardless of how
//     rows are partitioned, so results are bit-for-bit the same for any
//     worker count. This is what lets the evaluation cache and the
//     deterministic parallel ASHA guarantee survive kernel parallelism.
//   - Bitwise agreement with the retained naive reference kernels
//     (NaiveMul/NaiveMulT/NaiveTMul) on finite inputs. The unrolled
//     loops keep each output element's additions in ascending-k order —
//     unrolling buys instruction-level parallelism from *independent*
//     element chains, never by splitting one element's sum — and every
//     product is passed through float64(·) so implementations that fuse
//     multiply-add (arm64, ppc64) cannot introduce drift.
//   - No av == 0 branch in the dense path. The naive kernels skip zero
//     multiplicands (profitable for sparse ReLU activations but a
//     mispredicted branch on dense data); the blocked kernels always
//     multiply. Adding av*bv with av == 0 contributes +0 or -0, and
//     IEEE-754 round-to-nearest addition of a signed zero never changes
//     a finite sum, so the skip is unobservable on finite data.
package mat

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// KernelKind selects the implementation used by Mul/MulT/TMul and by
// the per-parameter kernels AdamStep and FoldL2.
type KernelKind int32

const (
	// Blocked is the tuned register-blocked (and, above the size
	// threshold, row-parallel) portable kernel family.
	Blocked KernelKind = iota
	// NaiveKernel routes Mul/MulT/TMul to the retained sequential
	// reference kernels — the pre-tuning baseline kept for property
	// tests and benchmark comparisons.
	NaiveKernel
	// SIMD is the AVX2 microkernel family (amd64 only), bitwise-
	// identical to Blocked and NaiveKernel. Selected by default when
	// the CPU supports it; requesting it elsewhere falls back to
	// Blocked.
	SIMD
)

// String implements fmt.Stringer with the names BHPO_KERNEL accepts.
func (k KernelKind) String() string {
	switch k {
	case Blocked:
		return "blocked"
	case NaiveKernel:
		return "naive"
	case SIMD:
		return "simd"
	default:
		return fmt.Sprintf("KernelKind(%d)", int32(k))
	}
}

// ParseKernel converts a kernel name ("naive", "blocked", "simd") to its
// KernelKind, for the BHPO_KERNEL environment override and flag parsing.
func ParseKernel(s string) (KernelKind, error) {
	switch s {
	case "blocked":
		return Blocked, nil
	case "naive":
		return NaiveKernel, nil
	case "simd":
		return SIMD, nil
	}
	return 0, fmt.Errorf("mat: unknown kernel %q (want naive, blocked or simd)", s)
}

var activeKernel atomic.Int32 // KernelKind; set by init

// init selects the fastest supported kernel family (SIMD where AVX2 is
// available, Blocked otherwise). The BHPO_KERNEL environment variable
// forces a specific family — the forced-fallback CI run uses it to keep
// the portable path tested on AVX2 hardware. Unknown names are ignored
// rather than fatal: kernel choice never changes results, only speed.
func init() {
	k := Blocked
	if simdAvailable {
		k = SIMD
	}
	if name := os.Getenv("BHPO_KERNEL"); name != "" {
		if parsed, err := ParseKernel(name); err == nil {
			k = parsed
		}
	}
	activeKernel.Store(int32(normalizeKernel(k)))
}

// normalizeKernel maps a requested kind to the kind that will actually
// run, so ActiveKernel always reports truthfully.
func normalizeKernel(k KernelKind) KernelKind {
	if k == SIMD && !simdAvailable {
		return Blocked
	}
	return k
}

// SetKernel switches the implementation behind Mul/MulT/TMul and
// AdamStep/FoldL2 and returns the previous setting. Requesting SIMD
// without CPU support selects Blocked. It exists for benchmarks and
// tests that need a specific family end to end; production code never
// calls it.
func SetKernel(k KernelKind) KernelKind {
	return KernelKind(activeKernel.Swap(int32(normalizeKernel(k))))
}

// ActiveKernel returns the kernel family currently dispatched to.
func ActiveKernel() KernelKind { return KernelKind(activeKernel.Load()) }

// SIMDAvailable reports whether the SIMD kernel family is usable on this
// CPU (amd64 with AVX2 enabled by the OS).
func SIMDAvailable() bool { return simdAvailable }

// CPUFeatures returns a comma-separated list of the detected SIMD
// instruction-set extensions relevant to kernel selection (empty on
// platforms without the probe). For service introspection endpoints.
func CPUFeatures() string { return cpuFeatures() }

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
	kind := KernelKind(activeKernel.Load())
	if kind == NaiveKernel {
		naiveMul(dst, a, b)
		return
	}
	f := mulRangeKernel(kind)
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
// solo dispatchers, the row partitioner and the Batch* grouped
// dispatchers all run the identical per-row code.
type rangeKernel func(dst, a, b *Dense, i0, i1 int)

func mulRangeKernel(kind KernelKind) rangeKernel {
	if kind == SIMD {
		return mulSIMD
	}
	return mulBlocked
}

func mulTRangeKernel(kind KernelKind) rangeKernel {
	if kind == SIMD {
		return mulTSIMD
	}
	return mulTBlocked
}

func tMulRangeKernel(kind KernelKind) rangeKernel {
	if kind == SIMD {
		return tMulSIMD
	}
	return tMulBlocked
}

// MulT computes dst = a * bᵀ. dst must be a.rows×b.rows. See MulTWorkers.
func MulT(dst, a, b *Dense) { MulTWorkers(dst, a, b, 0) }

// MulTWorkers is MulT with an explicit worker cap (0 = GOMAXPROCS).
func MulTWorkers(dst, a, b *Dense, workers int) {
	checkMulT(dst, a, b)
	kind := KernelKind(activeKernel.Load())
	if kind == NaiveKernel {
		naiveMulT(dst, a, b)
		return
	}
	f := mulTRangeKernel(kind)
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
	kind := KernelKind(activeKernel.Load())
	if kind == NaiveKernel {
		naiveTMul(dst, a, b)
		return
	}
	f := tMulRangeKernel(kind)
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

// NaiveMul is the pre-tuning reference kernel for dst = a*b (sequential
// ikj loop with the zero-multiplicand skip). Retained so property tests
// and benchmarks can compare the blocked kernels against it.
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
