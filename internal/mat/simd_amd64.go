//go:build amd64 && !purego

package mat

import (
	"math"

	"enhancedbhpo/internal/cpu"
)

// AVX2 microkernel declarations (bodies in simd_amd64.s); internal/cpu's
// CPUID probe decides whether the SIMD kernel family is usable at all.
//
// The matmul kernels compute a register-resident 4-row destination tile
// over the whole inner dimension: tile4x8, tile4x4, tile4x2 and tile4x1
// cover 8, 4, 2 and 1 columns, and tileRows (kernels_simd.go) lays them
// over a row range; MulT, like backprop's δ·Wᵀ in internal/nn, runs as a
// Mul against a packed transpose. Each tile element starts at +0 and
// adds its products one k at a time in ascending k — the order of the
// naive and blocked loops — so tiling changes only *which* elements are
// computed together, never the order of additions within one.
// VMULPD/VADDPD round each lane exactly like the scalar ops, so the SIMD
// family is bitwise-identical to the blocked and naive kernels. The
// matmul and per-parameter kernels never emit FMA: a fused multiply-add
// rounds once where the reference kernels round twice, which would
// break that guarantee.
//
// The per-parameter kernels are the three weight writers — adamavx,
// sgdavx, and stepfromavx and axpytoavx (L-BFGS trial points) — each
// returning the sum
// of squares of what it wrote, the L2 fold foldl2avx,
// axpyavx and scaleavx, and L-BFGS's fused passes axpydotavx (an Axpy
// and the Dot that reads it) and pairavx (a curvature pair and its four
// sums). A layer's bias is added as the tile is stored,
// the one rounding a separate row-vector add would make.
//
// The activation kernels (the contracts are in activation.go) compute
// math.Exp lane for lane, and math.Exp itself has two bodies, one with
// FMA. So their exp comes in two variants, and pickExpKernels takes, at
// init, the one that reproduces this process's math.Exp, or none.

// tile4x8 sets, for r < 4 and c < 8,
//
//	dst[r*ldd+c] = Σ_{κ<k} a[r*rs+κ*cs] * b[κ*ldb+c]  (+ bias[c])
//
// summed from +0 in ascending κ; strides are in elements. Where bias is
// not nil, bias[c] is added to the sum as it is stored, one rounding.
// tile4x4, tile4x2 and tile4x1 do the same for c < 4, 2 and 1.
//
//go:noescape
func tile4x8(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)

//go:noescape
func tile4x4(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)

//go:noescape
func tile4x2(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)

//go:noescape
func tile4x1(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)

// The per-parameter kernels (contracts in elementwise.go and mat.go),
// four lanes wide over n elements. Those that return a sum of squares or
// a dot product add each block's four lanes to it in lane order.

// adamavx is AdamStep, c pointing at the eight coefficients in
// AdamCoeffs field order.
//
//go:noescape
func adamavx(p, m, v, grad *float64, n uintptr, c *AdamCoeffs, sq float64) float64

// sgdavx is SGDStep; nesterov is 0 or 1.
//
//go:noescape
func sgdavx(p, vel, grad *float64, n uintptr, mu, lr float64, nesterov uintptr, sq float64) float64

// axpytoavx is AxpyTo.
//
//go:noescape
func axpytoavx(dst, x, y *float64, n uintptr, a, sq float64) float64

// stepfromavx is StepFrom, the negation an XOR with mask (0 or the sign
// bit).
//
//go:noescape
func stepfromavx(p, base, dir, z *float64, n uintptr, step float64, mask uint64, dot, sq float64) (float64, float64)

// axpydotavx is AxpyDot, the negation an XOR with mask (0 or the sign
// bit).
//
//go:noescape
func axpydotavx(x, y, z *float64, n uintptr, a float64, mask uint64) float64

// pairavx is CurvaturePair.
//
//go:noescape
func pairavx(s, y, dir, grad, prev *float64, n uintptr, step float64) (sy, yy, gg, sg float64)

// axpyavx is Axpy and scaleavx is ScaleTo (and Scale, with dst = x).
//
//go:noescape
func axpyavx(x, y *float64, n uintptr, a float64)

//go:noescape
func scaleavx(dst, x *float64, n uintptr, s float64)

// transposeavx writes dst[j*rows+i] = src[i*cols+j] for the whole 4×4
// blocks, i < rows&^3 and j < cols&^3; rows and cols are at least 4.
//
//go:noescape
func transposeavx(dst, src *float64, rows, cols uintptr)

// colsumsavx is ColSumsInto over a rows×cols row-major m.
//
//go:noescape
func colsumsavx(out, m *float64, rows, cols uintptr)

// foldl2avx is FoldL2 four lanes wide over n elements.
//
//go:noescape
func foldl2avx(dst, gw, w *float64, n uintptr, alpha, rows float64)

// The activation kernels work in place over x's whole blocks of four.
// The exp-based ones (one variant per exp body) return how many
// elements they finished: they stop at the first block holding a lane
// outside their fast range, which the caller completes in Go.
//
//go:noescape
func expavx(x *float64, n uintptr) uintptr

//go:noescape
func expfmaavx(x *float64, n uintptr) uintptr

//go:noescape
func logisticavx(x *float64, n uintptr) uintptr

//go:noescape
func logisticfmaavx(x *float64, n uintptr) uintptr

//go:noescape
func tanhavx(x *float64, n uintptr) uintptr

//go:noescape
func tanhfmaavx(x *float64, n uintptr) uintptr

//go:noescape
func reluavx(x *float64, n uintptr) uintptr

//go:noescape
func logisticderivavx(d, a *float64, n uintptr)

//go:noescape
func tanhderivavx(d, a *float64, n uintptr)

//go:noescape
func reluderivavx(d, a *float64, n uintptr)

// simdAvailable selects the kernel family, once, for the life of the
// process: the AVX2 microkernels where the CPUID probe says yes, the
// blocked Go loops otherwise.
var simdAvailable = cpu.AVX2

// expKernel, logisticKernel and tanhKernel are the activation kernels of
// the variant whose exp reproduces this process's math.Exp, nil where
// neither does. math.Exp takes its FMA body where the CPU has FMA and
// GODEBUG leaves it on (math.useFMA, unexported), so the choice is made
// the only way that cannot disagree with it: the FMA variant is tried
// where CPUID reports FMA, and a variant is taken only if it matches
// math.Exp bit for bit over expProbe, on which the two bodies differ.
var expKernel, logisticKernel, tanhKernel = pickExpKernels()

func pickExpKernels() (exp, logistic, tanh func(*float64, uintptr) uintptr) {
	if !simdAvailable {
		return nil, nil, nil
	}
	if cpu.FMA && expMatches(expfmaavx) {
		return expfmaavx, logisticfmaavx, tanhfmaavx
	}
	if expMatches(expavx) {
		return expavx, logisticavx, tanhavx
	}
	return nil, nil, nil
}

// expMatches reports whether kernel computes math.Exp on every probe.
func expMatches(kernel func(*float64, uintptr) uintptr) bool {
	x := expProbe()
	if kernel(&x[0], uintptr(len(x))) != uintptr(len(x)) {
		return false
	}
	for i, v := range expProbe() {
		if math.Float64bits(x[i]) != math.Float64bits(math.Exp(v)) {
			return false
		}
	}
	return true
}

// reluKernel and the derivative kernels need no exp, so no variant.
var (
	reluKernel          = pick(reluavx)
	logisticDerivKernel = pick(logisticderivavx)
	tanhDerivKernel     = pick(tanhderivavx)
	reluDerivKernel     = pick(reluderivavx)
)

// pick returns k where the SIMD family runs, nil elsewhere.
func pick[K any](k K) (none K) {
	if simdAvailable {
		return k
	}
	return none
}
