//go:build !amd64 || purego

package mat

// Stubs for platforms without the AVX2 microkernels, and for -tags purego
// builds, which leave the assembly out so the portable blocked family
// runs end to end on AVX2 hardware too. simdAvailable is false, so the
// stubs below are unreachable; they exist only to keep the package
// compiling.

const simdAvailable = false

func tile4x8(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func tile4x4(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func tile4x2(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func tile4x1(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func adamavx(p, m, v, grad *float64, n uintptr, c *AdamCoeffs, sq float64) float64 {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func sgdavx(p, vel, grad *float64, n uintptr, mu, lr float64, nesterov uintptr, sq float64) float64 {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func axpytoavx(dst, x, y *float64, n uintptr, a, sq float64) float64 {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func axpydotavx(x, y, z *float64, n uintptr, a float64, mask uint64) float64 {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func pairavx(s, y, dir, grad, prev *float64, n uintptr, step float64) (sy, yy, gg float64) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func axpyavx(x, y *float64, n uintptr, a float64) {
	panic("mat: SIMD kernel called on a platform without SIMD support")
}

func scaleavx(v *float64, n uintptr, s float64) {
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
