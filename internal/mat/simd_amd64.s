//go:build amd64 && !purego

// AVX2 microkernels for the SIMD family: the matmul sweeps and the
// per-parameter Adam and L2-fold loops. See simd_amd64.go for the
// contracts. Determinism rules observed throughout:
//
//   - separate VMULPD + VADDPD, never FMA: each product is rounded
//     before it is added, exactly like the scalar float64(a*b) form;
//   - per output element, additions happen in the same order as the
//     scalar kernels (a0..a3 per quad in the axpys, ascending k in the
//     dot lanes); vectorization only groups *independent* elements;
//   - VZEROUPPER before any scalar tail or return, so the SSE tail ops
//     pay no AVX transition penalty.

#include "textflag.h"

// func axpy4avx(a0, a1, a2, a3 float64, b *float64, ldb uintptr, dst *float64, n uintptr)
TEXT ·axpy4avx(SB), NOSPLIT, $0-64
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ b+32(FP), SI
	MOVQ ldb+40(FP), CX
	SHLQ $3, CX            // stride in bytes
	MOVQ dst+48(FP), DI
	MOVQ n+56(FP), DX
	LEAQ (SI)(CX*1), R8    // b1
	LEAQ (SI)(CX*2), R9    // b2
	LEAQ (R8)(CX*2), R10   // b3
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-8, BX

axpy4_loop8:
	CMPQ AX, BX
	JGE  axpy4_quad
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD (SI)(AX*8), Y6
	VMOVUPD 32(SI)(AX*8), Y7
	VMULPD  Y0, Y6, Y6
	VMULPD  Y0, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R8)(AX*8), Y6
	VMOVUPD 32(R8)(AX*8), Y7
	VMULPD  Y1, Y6, Y6
	VMULPD  Y1, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R9)(AX*8), Y6
	VMOVUPD 32(R9)(AX*8), Y7
	VMULPD  Y2, Y6, Y6
	VMULPD  Y2, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD (R10)(AX*8), Y6
	VMOVUPD 32(R10)(AX*8), Y7
	VMULPD  Y3, Y6, Y6
	VMULPD  Y3, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy4_loop8

axpy4_quad:
	MOVQ DX, BX
	ANDQ $-4, BX

axpy4_loop4:
	CMPQ AX, BX
	JGE  axpy4_tail
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y6
	VMULPD  Y0, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD (R8)(AX*8), Y6
	VMULPD  Y1, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD (R9)(AX*8), Y6
	VMULPD  Y2, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD (R10)(AX*8), Y6
	VMULPD  Y3, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy4_loop4

axpy4_tail:
	VZEROUPPER

axpy4_tailloop:
	CMPQ AX, DX
	JGE  axpy4_done
	MOVSD (DI)(AX*8), X4
	MOVSD (SI)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD (R8)(AX*8), X6
	MULSD X1, X6
	ADDSD X6, X4
	MOVSD (R9)(AX*8), X6
	MULSD X2, X6
	ADDSD X6, X4
	MOVSD (R10)(AX*8), X6
	MULSD X3, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  axpy4_tailloop

axpy4_done:
	RET

// func axpy1avx(a0 float64, b *float64, dst *float64, n uintptr)
TEXT ·axpy1avx(SB), NOSPLIT, $0-32
	VBROADCASTSD a0+0(FP), Y0
	MOVQ b+8(FP), SI
	MOVQ dst+16(FP), DI
	MOVQ n+24(FP), DX
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-8, BX

axpy1_loop8:
	CMPQ AX, BX
	JGE  axpy1_quad
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMOVUPD (SI)(AX*8), Y6
	VMOVUPD 32(SI)(AX*8), Y7
	VMULPD  Y0, Y6, Y6
	VMULPD  Y0, Y7, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy1_loop8

axpy1_quad:
	MOVQ DX, BX
	ANDQ $-4, BX

axpy1_loop4:
	CMPQ AX, BX
	JGE  axpy1_tail
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD (SI)(AX*8), Y6
	VMULPD  Y0, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX
	JMP  axpy1_loop4

axpy1_tail:
	VZEROUPPER

axpy1_tailloop:
	CMPQ AX, DX
	JGE  axpy1_done
	MOVSD (DI)(AX*8), X4
	MOVSD (SI)(AX*8), X6
	MULSD X0, X6
	ADDSD X6, X4
	MOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  axpy1_tailloop

axpy1_done:
	RET

// func dot4avx(a *float64, b *float64, ldb, n uintptr, out *float64)
//
// Four independent dot products in the four lanes of Y0: each k-step
// loads b0..b3[k..k+3], transposes the 4x4 block into per-k column
// vectors, and adds a[k]*col(k) one k at a time — so every lane is a
// single sequential ascending-k accumulation chain, exactly like the
// scalar 4-chain loop in mulTBlocked. Only n&^3 steps are processed;
// the caller finishes the k tail.
TEXT ·dot4avx(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), R8
	MOVQ ldb+16(FP), CX
	SHLQ $3, CX
	MOVQ n+24(FP), DX
	LEAQ (R8)(CX*1), R9
	LEAQ (R8)(CX*2), R10
	LEAQ (R9)(CX*2), R11
	VXORPD Y0, Y0, Y0
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-4, BX

dot4_loop:
	CMPQ AX, BX
	JGE  dot4_done
	VMOVUPD (R8)(AX*8), Y1   // b0[k..k+3]
	VMOVUPD (R9)(AX*8), Y2   // b1[k..k+3]
	VMOVUPD (R10)(AX*8), Y3  // b2[k..k+3]
	VMOVUPD (R11)(AX*8), Y4  // b3[k..k+3]
	VUNPCKLPD Y2, Y1, Y5     // b0[k] b1[k] b0[k+2] b1[k+2]
	VUNPCKHPD Y2, Y1, Y6     // b0[k+1] b1[k+1] b0[k+3] b1[k+3]
	VUNPCKLPD Y4, Y3, Y7     // b2[k] b3[k] b2[k+2] b3[k+2]
	VUNPCKHPD Y4, Y3, Y8     // b2[k+1] b3[k+1] b2[k+3] b3[k+3]
	VPERM2F128 $0x20, Y7, Y5, Y9   // col k
	VPERM2F128 $0x20, Y8, Y6, Y10  // col k+1
	VPERM2F128 $0x31, Y7, Y5, Y11  // col k+2
	VPERM2F128 $0x31, Y8, Y6, Y12  // col k+3
	VBROADCASTSD (SI)(AX*8), Y13
	VMULPD Y9, Y13, Y13
	VADDPD Y13, Y0, Y0
	VBROADCASTSD 8(SI)(AX*8), Y13
	VMULPD Y10, Y13, Y13
	VADDPD Y13, Y0, Y0
	VBROADCASTSD 16(SI)(AX*8), Y13
	VMULPD Y11, Y13, Y13
	VADDPD Y13, Y0, Y0
	VBROADCASTSD 24(SI)(AX*8), Y13
	VMULPD Y12, Y13, Y13
	VADDPD Y13, Y0, Y0
	ADDQ $4, AX
	JMP  dot4_loop

dot4_done:
	MOVQ out+32(FP), DI
	VMOVUPD Y0, (DI)
	VZEROUPPER
	RET

// func adamavx(p, m, v, grad *float64, n uintptr, c *AdamCoeffs)
//
// One Adam step per lane, in the reference loop's operation order:
// m' = β1·m + (1−β1)·g, v' = β2·v + ((1−β2)·g)·g, then
// p −= (lr·(m'/b1c)) / (√(v'/b2c) + ε). Multiplication is commutative
// bit for bit, so only the grouping of each expression matters, and it
// is kept. VSQRTPD and VDIVPD are correctly rounded like SQRTSD and
// DIVSD, so every lane equals the scalar form.
TEXT ·adamavx(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), R8
	MOVQ grad+24(FP), R9
	MOVQ n+32(FP), DX
	MOVQ c+40(FP), R10
	VBROADCASTSD 0(R10), Y0   // β1
	VBROADCASTSD 8(R10), Y1   // 1−β1
	VBROADCASTSD 16(R10), Y2  // β2
	VBROADCASTSD 24(R10), Y3  // 1−β2
	VBROADCASTSD 32(R10), Y4  // lr
	VBROADCASTSD 40(R10), Y5  // b1c
	VBROADCASTSD 48(R10), Y6  // b2c
	VBROADCASTSD 56(R10), Y7  // ε
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-4, BX

adam_loop4:
	CMPQ AX, BX
	JGE  adam_tail
	VMOVUPD (R9)(AX*8), Y8    // g
	VMOVUPD (SI)(AX*8), Y9
	VMULPD  Y0, Y9, Y9        // β1·m
	VMULPD  Y1, Y8, Y10       // (1−β1)·g
	VADDPD  Y10, Y9, Y9       // m'
	VMOVUPD Y9, (SI)(AX*8)
	VMOVUPD (R8)(AX*8), Y10
	VMULPD  Y2, Y10, Y10      // β2·v
	VMULPD  Y3, Y8, Y11       // (1−β2)·g
	VMULPD  Y8, Y11, Y11      // ((1−β2)·g)·g
	VADDPD  Y11, Y10, Y10     // v'
	VMOVUPD Y10, (R8)(AX*8)
	VDIVPD  Y5, Y9, Y9        // m'/b1c
	VMULPD  Y4, Y9, Y9        // lr·(m'/b1c)
	VDIVPD  Y6, Y10, Y10      // v'/b2c
	VSQRTPD Y10, Y10
	VADDPD  Y7, Y10, Y10      // √(v'/b2c) + ε
	VDIVPD  Y10, Y9, Y9
	VMOVUPD (DI)(AX*8), Y11
	VSUBPD  Y9, Y11, Y11      // p − step
	VMOVUPD Y11, (DI)(AX*8)
	ADDQ $4, AX
	JMP  adam_loop4

adam_tail:
	VZEROUPPER

adam_tailloop:
	CMPQ AX, DX
	JGE  adam_done
	MOVSD (R9)(AX*8), X8
	MOVSD (SI)(AX*8), X9
	MULSD X0, X9
	MOVSD X8, X10
	MULSD X1, X10
	ADDSD X10, X9
	MOVSD X9, (SI)(AX*8)
	MOVSD (R8)(AX*8), X10
	MULSD X2, X10
	MOVSD X8, X11
	MULSD X3, X11
	MULSD X8, X11
	ADDSD X11, X10
	MOVSD X10, (R8)(AX*8)
	DIVSD X5, X9
	MULSD X4, X9
	DIVSD X6, X10
	SQRTSD X10, X10
	ADDSD X7, X10
	DIVSD X10, X9
	MOVSD (DI)(AX*8), X11
	SUBSD X9, X11
	MOVSD X11, (DI)(AX*8)
	INCQ AX
	JMP  adam_tailloop

adam_done:
	RET

// func foldl2avx(dst, gw, w *float64, n uintptr, alpha, rows float64)
//
// dst = gw + (α·w)/rows per lane, the reference loop's grouping.
TEXT ·foldl2avx(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ gw+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ n+24(FP), DX
	VBROADCASTSD alpha+32(FP), Y0
	VBROADCASTSD rows+40(FP), Y1
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-8, BX

foldl2_loop8:
	CMPQ AX, BX
	JGE  foldl2_quad
	VMOVUPD (R8)(AX*8), Y2
	VMOVUPD 32(R8)(AX*8), Y3
	VMULPD  Y0, Y2, Y2
	VMULPD  Y0, Y3, Y3
	VDIVPD  Y1, Y2, Y2
	VDIVPD  Y1, Y3, Y3
	VMOVUPD (SI)(AX*8), Y4
	VMOVUPD 32(SI)(AX*8), Y5
	VADDPD  Y2, Y4, Y4
	VADDPD  Y3, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  foldl2_loop8

foldl2_quad:
	MOVQ DX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  foldl2_tail
	VMOVUPD (R8)(AX*8), Y2
	VMULPD  Y0, Y2, Y2
	VDIVPD  Y1, Y2, Y2
	VMOVUPD (SI)(AX*8), Y4
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ $4, AX

foldl2_tail:
	VZEROUPPER

foldl2_tailloop:
	CMPQ AX, DX
	JGE  foldl2_done
	MOVSD (R8)(AX*8), X2
	MULSD X0, X2
	DIVSD X1, X2
	MOVSD (SI)(AX*8), X4
	ADDSD X2, X4
	MOVSD X4, (DI)(AX*8)
	INCQ AX
	JMP  foldl2_tailloop

foldl2_done:
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
