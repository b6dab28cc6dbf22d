//go:build amd64 && !purego

package mat

// AVX2 microkernel declarations (bodies in simd_amd64.s) plus the CPUID
// probing that decides whether the SIMD kernel family is usable at all.
//
// The microkernels are deliberately *not* full matmuls: they are the two
// inner-loop shapes the blocked kernels already use — a 4-row axpy sweep
// (mulBlocked/tMulBlocked) and a 4-wide dot-product block (mulTBlocked) —
// lifted to AVX2 with the exact same per-element accumulation order.
// Vectorizing across output columns (axpy) or across independent dot
// chains (dot4) only changes *which* elements are computed together,
// never the order of additions within one element, and VMULPD/VADDPD
// round each lane exactly like the scalar ops, so the SIMD family is
// bitwise-identical to the blocked and naive kernels. FMA instructions
// are never emitted: a fused multiply-add rounds once where the
// reference kernels round twice, which would break that guarantee.

// axpy4avx computes dst[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
// for j in [0, n), where b0 starts at b and b1..b3 follow at stride ldb
// elements. The four adds per element are applied in a0..a3 order,
// matching the scalar 4-wide unrolled loop.
//
//go:noescape
func axpy4avx(a0, a1, a2, a3 float64, b *float64, ldb uintptr, dst *float64, n uintptr)

// axpy1avx computes dst[j] += a0*b[j] for j in [0, n).
//
//go:noescape
func axpy1avx(a0 float64, b *float64, dst *float64, n uintptr)

// dot4avx sets out[m] = Σ_{k<n&^3} a[k]*b_m[k] for the four rows b_m at
// stride ldb elements from b, accumulating in ascending-k order per
// output (one sequential chain per lane; lanes are independent dots).
// The k tail beyond n&^3 is left to the caller so the remaining adds
// continue each chain in order.
//
//go:noescape
func dot4avx(a *float64, b *float64, ldb, n uintptr, out *float64)

// adamavx is AdamStep four lanes wide over n elements, c pointing at
// the eight coefficients in AdamCoeffs field order.
//
//go:noescape
func adamavx(p, m, v, grad *float64, n uintptr, c *AdamCoeffs)

// foldl2avx is FoldL2 four lanes wide over n elements.
//
//go:noescape
func foldl2avx(dst, gw, w *float64, n uintptr, alpha, rows float64)

// cpuid executes the CPUID instruction with the given leaf/subleaf.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS-enabled SIMD state).
func xgetbv0() (eax, edx uint32)

// detectAVX2 reports whether both the CPU and the OS support AVX2 with
// full YMM state.
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c1, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if c1&osxsaveBit == 0 || c1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (XMM) and 2 (YMM) must both be OS-enabled.
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0 // AVX2
}

// simdAvailable selects the kernel family, once, for the life of the
// process: the AVX2 microkernels where the probe says yes, the blocked
// Go loops otherwise.
var simdAvailable = detectAVX2()
