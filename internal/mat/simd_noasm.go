//go:build !amd64 || purego

package mat

// Stubs for platforms without the AVX2 microkernels, and for -tags purego
// builds, which leave the assembly out so the portable blocked family
// runs end to end on AVX2 hardware too. simdAvailable is false, so the
// stubs below are unreachable; they exist only to keep the package
// compiling.

const simdAvailable = false

func tile4x8(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func tile4x4(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func tile4x2(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func tile4x1(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func adamavx(p, m, v, grad *float64, n uintptr, c *AdamCoeffs) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func foldl2avx(dst, gw, w *float64, n uintptr, alpha, rows float64) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

// Without the assembly every activation runs its Go loop.
var (
	expKernel, logisticKernel, tanhKernel, reluKernel     func(x *float64, n uintptr) uintptr
	logisticDerivKernel, tanhDerivKernel, reluDerivKernel func(d, a *float64, n uintptr)
)
