//go:build amd64 && !purego

// AVX2 microkernels for the SIMD family: the matmul tiles (with the bias
// store), the per-parameter kernels — the Adam and SGD steps and the
// L-BFGS trial step, each carrying the sum of squares of what it wrote,
// the L2 folds, Axpy, Scale (ScaleTo) and L-BFGS's fused AxpyDot and
// curvature-pair passes — and the activations. See
// simd_amd64.go and activation.go for the contracts. Determinism rules
// observed throughout:
//
//   - separate VMULPD + VADDPD, never FMA: each product is rounded
//     before it is added, exactly like the scalar float64(a*b) form —
//     except in EXP_FMA, which fuses exactly where math.Exp's own FMA
//     body does and runs only where math.Exp runs that body;
//   - per output element, additions happen in the same order as the
//     scalar kernels (a tile element is +0 + p₀ + p₁ + … in ascending
//     k, one k per loop step); vectorization and tiling only group
//     *independent* elements;
//   - a reduction (a sum of squares, a dot product) is one chain in
//     element order, as in the Go loops: a block's four products are
//     computed together, then added to the scalar accumulator lane by
//     lane (SUM4), never summed pairwise;
//   - VZEROUPPER before any scalar tail or return, so the SSE tail ops
//     pay no AVX transition penalty.

#include "textflag.h"

// The matmul tile kernels: tile4xC computes a 4×C destination tile,
// C = 8, 4, 2 or 1 columns, over the whole k loop. The operands are
// addressed by strides, in elements:
//
//	dst[r*ldd + c] = Σ_{κ<k} a[r*rs + κ*cs] · b[κ*ldb + c]   (r < 4, c < C)
//
// The accumulators start at +0 and stay in registers; each step κ loads
// one C-wide b row, broadcasts the four a values and adds their products
// in ascending κ; the tile is stored once, at the end, with bias[c]
// added to column c first where bias is not nil (VADDPD acc + bias, the
// one rounding of adding the bias row afterwards). The arguments are
// the same for every width:
//
//	func tile4xC(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)
//
// TILE_ENTRY loads them into byte strides: SI walks a's row 0 and R8
// its row 3 (rows 1 and 2 are SI+CX and SI+2·CX), BX walks b, and DI,
// R10 are dst and its row stride; R11 counts k down.
#define TILE_ENTRY \
	MOVQ a+0(FP), SI; \
	MOVQ rs+8(FP), CX; \
	SHLQ $3, CX; \
	MOVQ cs+16(FP), DX; \
	SHLQ $3, DX; \
	MOVQ b+24(FP), BX; \
	MOVQ ldb+32(FP), R9; \
	SHLQ $3, R9; \
	MOVQ dst+40(FP), DI; \
	MOVQ ldd+48(FP), R10; \
	SHLQ $3, R10; \
	MOVQ k+56(FP), R11; \
	LEAQ (SI)(CX*2), R8; \
	ADDQ CX, R8

// TILE_STEP advances a, b and the k count by one step.
#define TILE_STEP \
	ADDQ DX, SI; \
	ADDQ DX, R8; \
	ADDQ R9, BX; \
	DECQ R11

// TILE_ROWS points R12 at dst's row 2 and R13 at its row 3, and AX at
// the bias columns (nil for none).
#define TILE_ROWS \
	LEAQ (DI)(R10*2), R12; \
	LEAQ (R12)(R10*1), R13; \
	MOVQ bias+64(FP), AX

// func tile4x8(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)
//
// Row r accumulates in Y(2r) (columns 0–3) and Y(2r+1) (columns 4–7).
TEXT ·tile4x8(SB), NOSPLIT, $0-72
	TILE_ENTRY
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	TESTQ  R11, R11
	JEQ    tile4x8_store

tile4x8_loop:
	VMOVUPD      (BX), Y8
	VMOVUPD      32(BX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD       Y8, Y10, Y14
	VMULPD       Y9, Y10, Y15
	VADDPD       Y14, Y0, Y0
	VADDPD       Y15, Y1, Y1
	VBROADCASTSD (SI)(CX*1), Y11
	VMULPD       Y8, Y11, Y14
	VMULPD       Y9, Y11, Y15
	VADDPD       Y14, Y2, Y2
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (SI)(CX*2), Y12
	VMULPD       Y8, Y12, Y14
	VMULPD       Y9, Y12, Y15
	VADDPD       Y14, Y4, Y4
	VADDPD       Y15, Y5, Y5
	VBROADCASTSD (R8), Y13
	VMULPD       Y8, Y13, Y14
	VMULPD       Y9, Y13, Y15
	VADDPD       Y14, Y6, Y6
	VADDPD       Y15, Y7, Y7
	TILE_STEP
	JNZ          tile4x8_loop

tile4x8_store:
	TILE_ROWS
	TESTQ   AX, AX
	JEQ     tile4x8_put
	VMOVUPD (AX), Y8
	VMOVUPD 32(AX), Y9
	VADDPD  Y8, Y0, Y0
	VADDPD  Y9, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y9, Y3, Y3
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7

tile4x8_put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R10*1)
	VMOVUPD Y3, 32(DI)(R10*1)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, 32(R13)
	VZEROUPPER
	RET

// func tile4x4(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)
//
// Row r accumulates in Yr.
TEXT ·tile4x4(SB), NOSPLIT, $0-72
	TILE_ENTRY
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	TESTQ  R11, R11
	JEQ    tile4x4_store

tile4x4_loop:
	VMOVUPD      (BX), Y8
	VBROADCASTSD (SI), Y10
	VBROADCASTSD (SI)(CX*1), Y11
	VBROADCASTSD (SI)(CX*2), Y12
	VBROADCASTSD (R8), Y13
	VMULPD       Y8, Y10, Y10
	VMULPD       Y8, Y11, Y11
	VMULPD       Y8, Y12, Y12
	VMULPD       Y8, Y13, Y13
	VADDPD       Y10, Y0, Y0
	VADDPD       Y11, Y1, Y1
	VADDPD       Y12, Y2, Y2
	VADDPD       Y13, Y3, Y3
	TILE_STEP
	JNZ          tile4x4_loop

tile4x4_store:
	TILE_ROWS
	TESTQ   AX, AX
	JEQ     tile4x4_put
	VMOVUPD (AX), Y8
	VADDPD  Y8, Y0, Y0
	VADDPD  Y8, Y1, Y1
	VADDPD  Y8, Y2, Y2
	VADDPD  Y8, Y3, Y3

tile4x4_put:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, (DI)(R10*1)
	VMOVUPD Y2, (R12)
	VMOVUPD Y3, (R13)
	VZEROUPPER
	RET

// func tile4x2(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)
//
// Row r accumulates in Xr; VMOVDDUP broadcasts an a value to both lanes.
TEXT ·tile4x2(SB), NOSPLIT, $0-72
	TILE_ENTRY
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	TESTQ  R11, R11
	JEQ    tile4x2_store

tile4x2_loop:
	VMOVUPD   (BX), X8
	VMOVDDUP  (SI), X10
	VMOVDDUP  (SI)(CX*1), X11
	VMOVDDUP  (SI)(CX*2), X12
	VMOVDDUP  (R8), X13
	VMULPD    X8, X10, X10
	VMULPD    X8, X11, X11
	VMULPD    X8, X12, X12
	VMULPD    X8, X13, X13
	VADDPD    X10, X0, X0
	VADDPD    X11, X1, X1
	VADDPD    X12, X2, X2
	VADDPD    X13, X3, X3
	TILE_STEP
	JNZ       tile4x2_loop

tile4x2_store:
	TILE_ROWS
	TESTQ   AX, AX
	JEQ     tile4x2_put
	VMOVUPD (AX), X8
	VADDPD  X8, X0, X0
	VADDPD  X8, X1, X1
	VADDPD  X8, X2, X2
	VADDPD  X8, X3, X3

tile4x2_put:
	VMOVUPD X0, (DI)
	VMOVUPD X1, (DI)(R10*1)
	VMOVUPD X2, (R12)
	VMOVUPD X3, (R13)
	VZEROUPPER
	RET

// func tile4x1(a *float64, rs, cs uintptr, b *float64, ldb uintptr, dst *float64, ldd, k uintptr, bias *float64)
//
// Row r accumulates in the low lane of Xr.
TEXT ·tile4x1(SB), NOSPLIT, $0-72
	TILE_ENTRY
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	TESTQ  R11, R11
	JEQ    tile4x1_store

tile4x1_loop:
	VMOVSD (BX), X8
	VMOVSD (SI), X10
	VMOVSD (SI)(CX*1), X11
	VMOVSD (SI)(CX*2), X12
	VMOVSD (R8), X13
	VMULSD X8, X10, X10
	VMULSD X8, X11, X11
	VMULSD X8, X12, X12
	VMULSD X8, X13, X13
	VADDSD X10, X0, X0
	VADDSD X11, X1, X1
	VADDSD X12, X2, X2
	VADDSD X13, X3, X3
	TILE_STEP
	JNZ    tile4x1_loop

tile4x1_store:
	TILE_ROWS
	TESTQ  AX, AX
	JEQ    tile4x1_put
	VMOVSD (AX), X8
	VADDSD X8, X0, X0
	VADDSD X8, X1, X1
	VADDSD X8, X2, X2
	VADDSD X8, X3, X3

tile4x1_put:
	VMOVSD X0, (DI)
	VMOVSD X1, (DI)(R10*1)
	VMOVSD X2, (R12)
	VMOVSD X3, (R13)
	VZEROUPPER
	RET

// SUM4(y, x, t, acc) adds the four lanes of y to the scalar in acc's low
// lane, lane 0 first, one rounding each: the sequential chain of the Go
// loops (acc is the first operand, as in their acc += v). x is y's low
// half and t a scratch register; y is clobbered.
#define SUM4(y, x, t, acc) \
	VADDSD       x, acc, acc; \
	VUNPCKHPD    x, x, t; \
	VADDSD       t, acc, acc; \
	VEXTRACTF128 $1, y, x; \
	VADDSD       x, acc, acc; \
	VUNPCKHPD    x, x, t; \
	VADDSD       t, acc, acc

// func adamavx(p, m, v, grad *float64, n uintptr, c *AdamCoeffs, sq float64) float64
//
// One Adam step per lane, in the reference loop's operation order:
// m' = β1·m + (1−β1)·g, v' = β2·v + ((1−β2)·g)·g, then
// p −= (lr·(m'/b1c)) / (√(v'/b2c) + ε), and p'·p' into the chain in X15.
// Multiplication is commutative bit for bit, so only the grouping of
// each expression matters, and it is kept. VSQRTPD and VDIVPD are
// correctly rounded like SQRTSD and DIVSD, so every lane equals the
// scalar form. The chain's latency hides behind the divides.
TEXT ·adamavx(SB), NOSPLIT, $0-64
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
	VMOVSD       sq+48(FP), X15
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
	VMULPD  Y11, Y11, Y12     // p'·p'
	SUM4(Y12, X12, X13, X15)
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
	MULSD X11, X11
	ADDSD X11, X15
	INCQ AX
	JMP  adam_tailloop

adam_done:
	MOVSD X15, ret+56(FP)
	RET

// func sgdavx(p, vel, grad *float64, n uintptr, mu, lr float64, nesterov uintptr, sq float64) float64
//
// One momentum step per lane: v' = μ·v − lr·g, then p += v' (plain) or
// p += μ·v' − lr·g (nesterov, the lr·g product reused), and p'·p' into
// the chain in X15.
TEXT ·sgdavx(SB), NOSPLIT, $0-72
	MOVQ         p+0(FP), DI
	MOVQ         vel+8(FP), SI
	MOVQ         grad+16(FP), R8
	MOVQ         n+24(FP), DX
	VBROADCASTSD mu+32(FP), Y0
	VBROADCASTSD lr+40(FP), Y1
	MOVQ         nesterov+48(FP), R10
	VMOVSD       sq+56(FP), X15
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-4, BX

sgd_loop4:
	CMPQ AX, BX
	JGE  sgd_tail
	VMOVUPD (R8)(AX*8), Y2
	VMULPD  Y2, Y1, Y2        // lr·g
	VMOVUPD (SI)(AX*8), Y3
	VMULPD  Y0, Y3, Y3        // μ·v
	VSUBPD  Y2, Y3, Y3        // v'
	VMOVUPD Y3, (SI)(AX*8)
	TESTQ   R10, R10
	JEQ     sgd_add4
	VMULPD  Y0, Y3, Y3        // μ·v'
	VSUBPD  Y2, Y3, Y3        // μ·v' − lr·g

sgd_add4:
	VMOVUPD (DI)(AX*8), Y4
	VADDPD  Y3, Y4, Y4        // p + d
	VMOVUPD Y4, (DI)(AX*8)
	VMULPD  Y4, Y4, Y5
	SUM4(Y5, X5, X6, X15)
	ADDQ $4, AX
	JMP  sgd_loop4

sgd_tail:
	VZEROUPPER

sgd_tailloop:
	CMPQ  AX, DX
	JGE   sgd_done
	MOVSD (R8)(AX*8), X2
	MULSD X1, X2
	MOVSD (SI)(AX*8), X3
	MULSD X0, X3
	SUBSD X2, X3
	MOVSD X3, (SI)(AX*8)
	TESTQ R10, R10
	JEQ   sgd_add1
	MULSD X0, X3
	SUBSD X2, X3

sgd_add1:
	MOVSD (DI)(AX*8), X4
	ADDSD X3, X4
	MOVSD X4, (DI)(AX*8)
	MULSD X4, X4
	ADDSD X4, X15
	INCQ  AX
	JMP   sgd_tailloop

sgd_done:
	MOVSD X15, ret+64(FP)
	RET

// func axpytoavx(dst, x, y *float64, n uintptr, a, sq float64) float64
//
// dst = y + a·x per lane, and dst·dst into the chain in X15.
TEXT ·axpytoavx(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), R8
	MOVQ         n+24(FP), DX
	VBROADCASTSD a+32(FP), Y0
	VMOVSD       sq+40(FP), X15
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-4, BX

axpyto_loop4:
	CMPQ AX, BX
	JGE  axpyto_tail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y1, Y0, Y1        // a·x
	VMOVUPD (R8)(AX*8), Y2
	VADDPD  Y1, Y2, Y2        // y + a·x
	VMOVUPD Y2, (DI)(AX*8)
	VMULPD  Y2, Y2, Y3
	SUM4(Y3, X3, X4, X15)
	ADDQ $4, AX
	JMP  axpyto_loop4

axpyto_tail:
	VZEROUPPER

axpyto_tailloop:
	CMPQ  AX, DX
	JGE   axpyto_done
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	MOVSD (R8)(AX*8), X2
	ADDSD X1, X2
	MOVSD X2, (DI)(AX*8)
	MULSD X2, X2
	ADDSD X2, X15
	INCQ  AX
	JMP   axpyto_tailloop

axpyto_done:
	MOVSD X15, ret+48(FP)
	RET

// func stepfromavx(p, base, dir, z *float64, n uintptr, step float64, mask uint64, dot, sq float64) (float64, float64)
//
// d = dir XOR mask (stored back), base = p, p = base + step·d per lane;
// z·d into the chain in X14 and p·p into the chain in X15, advanced
// lane by lane side by side, so they cost the latency of one.
TEXT ·stepfromavx(SB), NOSPLIT, $0-88
	MOVQ         p+0(FP), DI
	MOVQ         base+8(FP), SI
	MOVQ         dir+16(FP), R8
	MOVQ         z+24(FP), R9
	MOVQ         n+32(FP), DX
	VBROADCASTSD step+40(FP), Y0
	VBROADCASTSD mask+48(FP), Y1
	VMOVSD       dot+56(FP), X14
	VMOVSD       sq+64(FP), X15
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-4, BX

stepfrom_loop4:
	CMPQ AX, BX
	JGE  stepfrom_tail
	VMOVUPD      (R8)(AX*8), Y2
	VXORPD       Y1, Y2, Y2   // d
	VMOVUPD      Y2, (R8)(AX*8)
	VMOVUPD      (DI)(AX*8), Y3
	VMOVUPD      Y3, (SI)(AX*8)
	VMULPD       Y2, Y0, Y4   // step·d
	VADDPD       Y4, Y3, Y3   // base + step·d
	VMOVUPD      Y3, (DI)(AX*8)
	VMOVUPD      (R9)(AX*8), Y4
	VMULPD       Y2, Y4, Y4   // z·d
	VMULPD       Y3, Y3, Y5   // p·p
	VADDSD       X4, X14, X14
	VADDSD       X5, X15, X15
	VUNPCKHPD    X4, X4, X6
	VUNPCKHPD    X5, X5, X7
	VADDSD       X6, X14, X14
	VADDSD       X7, X15, X15
	VEXTRACTF128 $1, Y4, X4
	VEXTRACTF128 $1, Y5, X5
	VADDSD       X4, X14, X14
	VADDSD       X5, X15, X15
	VUNPCKHPD    X4, X4, X6
	VUNPCKHPD    X5, X5, X7
	VADDSD       X6, X14, X14
	VADDSD       X7, X15, X15
	ADDQ $4, AX
	JMP  stepfrom_loop4

stepfrom_tail:
	VZEROUPPER

stepfrom_tailloop:
	CMPQ  AX, DX
	JGE   stepfrom_done
	MOVSD (R8)(AX*8), X2
	XORPD X1, X2
	MOVSD X2, (R8)(AX*8)
	MOVSD (DI)(AX*8), X3
	MOVSD X3, (SI)(AX*8)
	MOVSD X2, X4
	MULSD X0, X4
	ADDSD X4, X3
	MOVSD X3, (DI)(AX*8)
	MOVSD (R9)(AX*8), X4
	MULSD X2, X4
	MOVSD X3, X5
	MULSD X3, X5
	ADDSD X4, X14
	ADDSD X5, X15
	INCQ  AX
	JMP   stepfrom_tailloop

stepfrom_done:
	MOVSD X14, ret+72(FP)
	MOVSD X15, ret1+80(FP)
	RET

// func axpydotavx(x, y, z *float64, n uintptr, a float64, mask uint64) float64
//
// y = (y + a·x) XOR mask per lane, and z·y into the chain in X15, from
// +0.
TEXT ·axpydotavx(SB), NOSPLIT, $0-56
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         z+16(FP), R8
	MOVQ         n+24(FP), DX
	VBROADCASTSD a+32(FP), Y0
	VBROADCASTSD mask+40(FP), Y1
	VXORPD       X15, X15, X15
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-4, BX

axpydot_loop4:
	CMPQ AX, BX
	JGE  axpydot_tail
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  Y2, Y0, Y2        // a·x
	VMOVUPD (DI)(AX*8), Y3
	VADDPD  Y2, Y3, Y3        // y + a·x
	VXORPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)(AX*8)
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  Y3, Y4, Y4        // z·y
	SUM4(Y4, X4, X5, X15)
	ADDQ $4, AX
	JMP  axpydot_loop4

axpydot_tail:
	VZEROUPPER

axpydot_tailloop:
	CMPQ  AX, DX
	JGE   axpydot_done
	MOVSD (SI)(AX*8), X2
	MULSD X0, X2
	MOVSD (DI)(AX*8), X3
	ADDSD X2, X3
	XORPD X1, X3
	MOVSD X3, (DI)(AX*8)
	MOVSD (R8)(AX*8), X4
	MULSD X3, X4
	ADDSD X4, X15
	INCQ  AX
	JMP   axpydot_tailloop

axpydot_done:
	MOVSD X15, ret+48(FP)
	RET

// func pairavx(s, y, dir, grad, prev *float64, n uintptr, step float64) (sy, yy, gg, sg float64)
//
// s = step·dir and y = grad − prev per lane; sᵀy, yᵀy, gᵀg and sᵀg are
// four independent chains (X12–X15, from +0), advanced lane by lane
// side by side, so they cost the latency of one.
TEXT ·pairavx(SB), NOSPLIT, $0-88
	MOVQ         s+0(FP), DI
	MOVQ         y+8(FP), SI
	MOVQ         dir+16(FP), R8
	MOVQ         grad+24(FP), R9
	MOVQ         prev+32(FP), R10
	MOVQ         n+40(FP), DX
	VBROADCASTSD step+48(FP), Y0
	VXORPD       X12, X12, X12
	VXORPD       X13, X13, X13
	VXORPD       X14, X14, X14
	VXORPD       X15, X15, X15
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-4, BX

pair_loop4:
	CMPQ AX, BX
	JGE  pair_tail
	VMOVUPD      (R8)(AX*8), Y1
	VMULPD       Y1, Y0, Y1   // s = step·dir
	VMOVUPD      Y1, (DI)(AX*8)
	VMOVUPD      (R9)(AX*8), Y2
	VMOVUPD      (R10)(AX*8), Y3
	VSUBPD       Y3, Y2, Y3   // y = grad − prev
	VMOVUPD      Y3, (SI)(AX*8)
	VMULPD       Y3, Y1, Y4   // s·y
	VMULPD       Y3, Y3, Y5   // y·y
	VMULPD       Y2, Y2, Y6   // grad·grad
	VMULPD       Y2, Y1, Y10  // s·grad
	VADDSD       X4, X13, X13
	VADDSD       X5, X14, X14
	VADDSD       X6, X15, X15
	VADDSD       X10, X12, X12
	VUNPCKHPD    X4, X4, X7
	VUNPCKHPD    X5, X5, X8
	VUNPCKHPD    X6, X6, X9
	VUNPCKHPD    X10, X10, X11
	VADDSD       X7, X13, X13
	VADDSD       X8, X14, X14
	VADDSD       X9, X15, X15
	VADDSD       X11, X12, X12
	VEXTRACTF128 $1, Y4, X4
	VEXTRACTF128 $1, Y5, X5
	VEXTRACTF128 $1, Y6, X6
	VEXTRACTF128 $1, Y10, X10
	VADDSD       X4, X13, X13
	VADDSD       X5, X14, X14
	VADDSD       X6, X15, X15
	VADDSD       X10, X12, X12
	VUNPCKHPD    X4, X4, X7
	VUNPCKHPD    X5, X5, X8
	VUNPCKHPD    X6, X6, X9
	VUNPCKHPD    X10, X10, X11
	VADDSD       X7, X13, X13
	VADDSD       X8, X14, X14
	VADDSD       X9, X15, X15
	VADDSD       X11, X12, X12
	ADDQ $4, AX
	JMP  pair_loop4

pair_tail:
	VZEROUPPER

pair_tailloop:
	CMPQ  AX, DX
	JGE   pair_done
	MOVSD (R8)(AX*8), X1
	MULSD X0, X1
	MOVSD X1, (DI)(AX*8)
	MOVSD (R9)(AX*8), X2
	MOVSD X2, X3
	SUBSD (R10)(AX*8), X3
	MOVSD X3, (SI)(AX*8)
	MOVSD X1, X4
	MULSD X3, X4
	MOVSD X3, X5
	MULSD X3, X5
	MOVSD X2, X6
	MULSD X2, X6
	MOVSD X1, X10
	MULSD X2, X10
	ADDSD X4, X13
	ADDSD X5, X14
	ADDSD X6, X15
	ADDSD X10, X12
	INCQ  AX
	JMP   pair_tailloop

pair_done:
	MOVSD X13, sy+56(FP)
	MOVSD X14, yy+64(FP)
	MOVSD X15, gg+72(FP)
	MOVSD X12, sg+80(FP)
	RET

// func axpyavx(x, y *float64, n uintptr, a float64)
//
// y = y + a·x per lane.
TEXT ·axpyavx(SB), NOSPLIT, $0-32
	MOVQ         x+0(FP), SI
	MOVQ         y+8(FP), DI
	MOVQ         n+16(FP), DX
	VBROADCASTSD a+24(FP), Y0
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-8, BX

axpy_loop8:
	CMPQ AX, BX
	JGE  axpy_quad
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  axpy_loop8

axpy_quad:
	MOVQ DX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  axpy_tail
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX

axpy_tail:
	VZEROUPPER

axpy_tailloop:
	CMPQ  AX, DX
	JGE   axpy_done
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	ADDSD (DI)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ  AX
	JMP   axpy_tailloop

axpy_done:
	RET

// func scaleavx(dst, x *float64, n uintptr, s float64)
//
// dst = s·x per lane; dst may be x.
TEXT ·scaleavx(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         n+16(FP), DX
	VBROADCASTSD s+24(FP), Y0
	XORQ AX, AX
	MOVQ DX, BX
	ANDQ $-8, BX

scale_loop8:
	CMPQ AX, BX
	JGE  scale_quad
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ $8, AX
	JMP  scale_loop8

scale_quad:
	MOVQ DX, BX
	ANDQ $-4, BX
	CMPQ AX, BX
	JGE  scale_tail
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX

scale_tail:
	VZEROUPPER

scale_tailloop:
	CMPQ  AX, DX
	JGE   scale_done
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	MOVSD X1, (DI)(AX*8)
	INCQ  AX
	JMP   scale_tailloop

scale_done:
	RET

// func transposeavx(dst, src *float64, rows, cols uintptr)
//
// dst[j*rows + i] = src[i*cols + j] over the whole 4×4 blocks: four src
// rows of four are loaded, transposed in registers (two unpacks and a
// 128-bit permute per output row) and stored as four dst rows of four.
// Only moves, so every bit is src's.
TEXT ·transposeavx(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ cols+24(FP), CX
	MOVQ CX, R10
	SHLQ $3, R10              // src row stride in bytes
	MOVQ DX, R11
	SHLQ $3, R11              // dst row stride in bytes
	MOVQ DX, R12
	ANDQ $-4, R12             // rows, whole blocks
	MOVQ CX, R13
	ANDQ $-4, R13             // cols, whole blocks
	XORQ AX, AX               // i

transpose_rows:
	CMPQ AX, R12
	JGE  transpose_done
	MOVQ AX, R8
	IMULQ R10, R8
	ADDQ SI, R8               // &src[i*cols]
	LEAQ (DI)(AX*8), R9       // &dst[i]
	XORQ BX, BX               // j

transpose_cols:
	CMPQ       BX, R13
	JGE        transpose_next
	LEAQ       (R8)(BX*8), DX
	VMOVUPD    (DX), Y0           // a0 a1 a2 a3
	VMOVUPD    (DX)(R10*1), Y1    // b0 b1 b2 b3
	LEAQ       (DX)(R10*2), DX
	VMOVUPD    (DX), Y2           // c0 c1 c2 c3
	VMOVUPD    (DX)(R10*1), Y3    // d0 d1 d2 d3
	VUNPCKLPD  Y1, Y0, Y4         // a0 b0 a2 b2
	VUNPCKHPD  Y1, Y0, Y5         // a1 b1 a3 b3
	VUNPCKLPD  Y3, Y2, Y6         // c0 d0 c2 d2
	VUNPCKHPD  Y3, Y2, Y7         // c1 d1 c3 d3
	VPERM2F128 $0x20, Y6, Y4, Y0  // a0 b0 c0 d0
	VPERM2F128 $0x20, Y7, Y5, Y1  // a1 b1 c1 d1
	VPERM2F128 $0x31, Y6, Y4, Y2  // a2 b2 c2 d2
	VPERM2F128 $0x31, Y7, Y5, Y3  // a3 b3 c3 d3
	MOVQ       BX, CX
	IMULQ      R11, CX
	ADDQ       R9, CX             // &dst[j*rows + i]
	VMOVUPD    Y0, (CX)
	VMOVUPD    Y1, (CX)(R11*1)
	LEAQ       (CX)(R11*2), CX
	VMOVUPD    Y2, (CX)
	VMOVUPD    Y3, (CX)(R11*1)
	ADDQ       $4, BX
	JMP        transpose_cols

transpose_next:
	ADDQ $4, AX
	JMP  transpose_rows

transpose_done:
	VZEROUPPER
	RET

// func colsumsavx(out, m *float64, rows, cols uintptr)
//
// out[j] = +0 + m[0][j] + m[1][j] + … down the rows, in order: sixteen
// columns at a time in Y0–Y3, then four in Y0, then one in X0, each
// column's chain its own lane. Each add takes the row's value as its
// first operand, as the compiled Go loop does (v + out[j]), so where two
// NaNs meet the same payload wins.
TEXT ·colsumsavx(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ rows+16(FP), DX
	MOVQ cols+24(FP), CX
	MOVQ CX, R10
	SHLQ $3, R10              // row stride in bytes
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-16, BX

colsums_loop16:
	CMPQ   AX, BX
	JGE    colsums_quad
	LEAQ   (SI)(AX*8), R8
	MOVQ   DX, R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

colsums_rows16:
	VMOVUPD (R8), Y4
	VMOVUPD 32(R8), Y5
	VMOVUPD 64(R8), Y6
	VMOVUPD 96(R8), Y7
	VADDPD  Y0, Y4, Y0
	VADDPD  Y1, Y5, Y1
	VADDPD  Y2, Y6, Y2
	VADDPD  Y3, Y7, Y3
	ADDQ    R10, R8
	DECQ    R9
	JNZ     colsums_rows16
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     colsums_loop16

colsums_quad:
	MOVQ CX, BX
	ANDQ $-4, BX

colsums_loop4:
	CMPQ   AX, BX
	JGE    colsums_tail
	LEAQ   (SI)(AX*8), R8
	MOVQ   DX, R9
	VXORPD Y0, Y0, Y0

colsums_rows4:
	VMOVUPD (R8), Y4
	VADDPD  Y0, Y4, Y0
	ADDQ    R10, R8
	DECQ    R9
	JNZ     colsums_rows4
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     colsums_loop4

colsums_tail:
	VZEROUPPER

colsums_loop1:
	CMPQ  AX, CX
	JGE   colsums_done
	LEAQ  (SI)(AX*8), R8
	MOVQ  DX, R9
	XORPD X0, X0

colsums_rows1:
	MOVSD (R8), X1
	ADDSD X0, X1
	MOVSD X1, X0
	ADDQ  R10, R8
	DECQ  R9
	JNZ   colsums_rows1
	MOVSD X0, (DI)(AX*8)
	INCQ  AX
	JMP   colsums_loop1

colsums_done:
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

// The activation kernels: exp, and on top of it the logistic function
// and tanh, four lanes at a time, plus relu and the three derivatives.
// Each lane performs the operations of the scalar Go code in its order,
// so each is bit-identical to it (see activation.go for the contracts).
//
// exp is math.archExp (exp_amd64.s) lane for lane, the SLEEF sequence
// it was written from being straight-line SIMD code already: x·log2e is
// rounded to an integer k by VCVTPD2DQ, which rounds through MXCSR as
// CVTSD2SL does; x − k·ln2 is reduced in two halves, scaled by 1/16 and
// put through the Taylor polynomial and four squarings; the result is
// multiplied by 2ᵏ, built as (k + 1023) << 52. archExp has two bodies,
// chosen by math.useFMA, and so has this: EXP_PLAIN rounds every product
// like the MULSD/ADDSD path, EXP_FMA fuses exactly where the VFMADD
// path does. Only the fast range |x| ≤ 700 is computed: no overflow,
// underflow or denormal occurs there, so the scalar code's special
// cases never apply. A kernel stops at the first block holding a lane
// outside its range and returns how many elements it finished; the
// caller completes that block with the Go code and resumes.
//
// In every kernel Y0–Y3 are exp's working registers (x in and eˣ out
// in Y0, the integer k in X2), Y14 holds the sign-clear mask and Y15
// the range bound where a kernel checks it.

// Four copies of each constant, one YMM operand apiece, at 32-byte
// steps: the sign masks, exp's range bound and the constants of
// math.archExp (exp_amd64.s), the exponent bias, and math.tanh's branch
// points and rational coefficients. Bit patterns, not decimals, so
// each lane is the exact float64 the scalar code reads.
#define CONST4(off, bits) DATA actconst<>+off(SB)/8, bits; DATA actconst<>+off+8(SB)/8, bits; DATA actconst<>+off+16(SB)/8, bits; DATA actconst<>+off+24(SB)/8, bits

CONST4(0, $0x7fffffffffffffff) // sign bit clear
CONST4(32, $0x8000000000000000) // sign bit
CONST4(64, $0x4085e00000000000) // 700, the fast range of exp
CONST4(96, $0x3ff71547652b82fe) // 1/ln 2
CONST4(128, $0x3fe62e42fefa3000) // upper half of ln 2
CONST4(160, $0x3d53de6af278ece6) // lower half of ln 2
CONST4(192, $0x3fb0000000000000) // 0.0625
CONST4(224, $0x3efa01a01a01a01a) // 1/8!
CONST4(256, $0x3f2a01a01a01a01a) // 1/7!
CONST4(288, $0x3f56c16c16c16c17) // 1/6!
CONST4(320, $0x3f81111111111111) // 1/5!
CONST4(352, $0x3fa5555555555555) // 1/4!
CONST4(384, $0x3fc5555555555555) // 1/3!
CONST4(416, $0x3fe0000000000000) // 0.5
CONST4(448, $0x3ff0000000000000) // 1.0
CONST4(480, $0x4000000000000000) // 2.0
CONST4(512, $0x00000000000003ff) // 1023, the exponent bias (int64 lanes)
CONST4(544, $0x3fe4000000000000) // 0.625
CONST4(576, $0x404601e678fc457b) // 0.5·MAXLOG of math.tanh
CONST4(608, $0xbfeedc5baafd6f4b) // tanhP[0]
CONST4(640, $0xc058d26a0e26682d) // tanhP[1]
CONST4(672, $0xc0993ac030580563) // tanhP[2]
CONST4(704, $0x405c33f28a581b86) // tanhQ[0]
CONST4(736, $0x40a176fa0e5535fa) // tanhQ[1]
CONST4(768, $0x40b2ec102442040c) // tanhQ[2]
GLOBL actconst<>(SB), RODATA|NOPTR, $800

#define ABSMASK actconst<>+0(SB)
#define SIGNMASK actconst<>+32(SB)
#define EXPBOUND actconst<>+64(SB)
#define LOG2E actconst<>+96(SB)
#define LN2U actconst<>+128(SB)
#define LN2L actconst<>+160(SB)
#define SIXTEENTH actconst<>+192(SB)
#define EXPC7 actconst<>+224(SB)
#define EXPC6 actconst<>+256(SB)
#define EXPC5 actconst<>+288(SB)
#define EXPC4 actconst<>+320(SB)
#define EXPC3 actconst<>+352(SB)
#define EXPC2 actconst<>+384(SB)
#define HALF actconst<>+416(SB)
#define ONE actconst<>+448(SB)
#define TWO actconst<>+480(SB)
#define EXPBIAS actconst<>+512(SB)
#define FIVEEIGHTHS actconst<>+544(SB)
#define HALFMAXLOG actconst<>+576(SB)
#define TANHP0 actconst<>+608(SB)
#define TANHP1 actconst<>+640(SB)
#define TANHP2 actconst<>+672(SB)
#define TANHQ0 actconst<>+704(SB)
#define TANHQ1 actconst<>+736(SB)
#define TANHQ2 actconst<>+768(SB)

// EXP_REDUCE rounds Y0·log2e to k (int32 lanes in X2, float64 in Y1).
#define EXP_REDUCE \
	VMULPD     LOG2E, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD  X2, Y1

// EXP_SCALE multiplies Y0 by 2ᵏ.
#define EXP_SCALE \
	VPMOVSXDQ X2, Y2; \
	VPADDQ    EXPBIAS, Y2, Y2; \
	VPSLLQ    $52, Y2, Y2; \
	VMULPD    Y2, Y0, Y0

// EXP_PLAIN sets Y0 = exp(Y0) as archExp's non-FMA path does.
#define EXP_PLAIN \
	EXP_REDUCE; \
	VMULPD  LN2U, Y1, Y3; \
	VSUBPD  Y3, Y0, Y0; \
	VMULPD  LN2L, Y1, Y3; \
	VSUBPD  Y3, Y0, Y0; \
	VMULPD  SIXTEENTH, Y0, Y0; \
	VMULPD  EXPC7, Y0, Y1; \
	VADDPD  EXPC6, Y1, Y1; \
	VMULPD  Y0, Y1, Y1; \
	VADDPD  EXPC5, Y1, Y1; \
	VMULPD  Y0, Y1, Y1; \
	VADDPD  EXPC4, Y1, Y1; \
	VMULPD  Y0, Y1, Y1; \
	VADDPD  EXPC3, Y1, Y1; \
	VMULPD  Y0, Y1, Y1; \
	VADDPD  EXPC2, Y1, Y1; \
	VMULPD  Y0, Y1, Y1; \
	VADDPD  HALF, Y1, Y1; \
	VMULPD  Y0, Y1, Y1; \
	VADDPD  ONE, Y1, Y1; \
	VMULPD  Y1, Y0, Y0; \
	VADDPD  TWO, Y0, Y1; \
	VMULPD  Y1, Y0, Y0; \
	VADDPD  TWO, Y0, Y1; \
	VMULPD  Y1, Y0, Y0; \
	VADDPD  TWO, Y0, Y1; \
	VMULPD  Y1, Y0, Y0; \
	VADDPD  TWO, Y0, Y1; \
	VMULPD  Y1, Y0, Y0; \
	VADDPD  ONE, Y0, Y0; \
	EXP_SCALE

// EXP_FMA sets Y0 = exp(Y0) as archExp's FMA path does.
#define EXP_FMA \
	EXP_REDUCE; \
	VFNMADD231PD LN2U, Y1, Y0; \
	VFNMADD231PD LN2L, Y1, Y0; \
	VMULPD       SIXTEENTH, Y0, Y0; \
	VMOVUPD      EXPC7, Y1; \
	VFMADD213PD  EXPC6, Y0, Y1; \
	VFMADD213PD  EXPC5, Y0, Y1; \
	VFMADD213PD  EXPC4, Y0, Y1; \
	VFMADD213PD  EXPC3, Y0, Y1; \
	VFMADD213PD  EXPC2, Y0, Y1; \
	VFMADD213PD  HALF, Y0, Y1; \
	VFMADD213PD  ONE, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       TWO, Y0, Y1; \
	VFMADD213PD  ONE, Y1, Y0; \
	EXP_SCALE

// EXP_OUTSIDE sets the flags for a JNZ taken when a lane of x lies
// outside exp's fast range: |x| > 700, or NaN.
#define EXP_OUTSIDE(x) \
	VANDPD    Y14, x, Y1; \
	VCMPPD    $0x16, Y15, Y1, Y1; \
	VMOVMSKPD Y1, BX; \
	TESTQ     BX, BX

// KERNEL_ENTRY loads a kernel's (x *float64, n uintptr) arguments and
// the range registers; AX counts finished elements up to n&^3 in DX.
#define KERNEL_ENTRY \
	MOVQ    x+0(FP), DI; \
	MOVQ    n+8(FP), DX; \
	ANDQ    $-4, DX; \
	XORQ    AX, AX; \
	VMOVUPD ABSMASK, Y14; \
	VMOVUPD EXPBOUND, Y15

// LOGISTIC_BLOCK sets Y0 = 1/(1+exp(−x)) from Y0 = x with the exp body
// given.
#define LOGISTIC_BLOCK(exp) \
	VXORPD  SIGNMASK, Y0, Y0; \
	exp; \
	VADDPD  ONE, Y0, Y0; \
	VMOVUPD ONE, Y1; \
	VDIVPD  Y0, Y1, Y0

// TANH_BLOCK sets Y12 = tanh(x) from Y6 = x with the exp body given:
// math.tanh's three branches for every lane, blended in its order.
#define TANH_BLOCK(exp) \
	VANDPD    Y14, Y6, Y7; \
	VADDPD    Y7, Y7, Y0; \
	exp; \
	VADDPD    ONE, Y0, Y0; \
	VMOVUPD   TWO, Y1; \
	VDIVPD    Y0, Y1, Y0; \
	VMOVUPD   ONE, Y1; \
	VSUBPD    Y0, Y1, Y0; \
	VANDPD    SIGNMASK, Y6, Y8; \
	VORPD     Y8, Y0, Y0; \
	VMULPD    Y6, Y6, Y9; \
	VMULPD    TANHP0, Y9, Y10; \
	VADDPD    TANHP1, Y10, Y10; \
	VMULPD    Y9, Y10, Y10; \
	VADDPD    TANHP2, Y10, Y10; \
	VADDPD    TANHQ0, Y9, Y11; \
	VMULPD    Y9, Y11, Y11; \
	VADDPD    TANHQ1, Y11, Y11; \
	VMULPD    Y9, Y11, Y11; \
	VADDPD    TANHQ2, Y11, Y11; \
	VMULPD    Y9, Y6, Y12; \
	VMULPD    Y10, Y12, Y12; \
	VDIVPD    Y11, Y12, Y12; \
	VADDPD    Y12, Y6, Y12; \
	VXORPD    Y13, Y13, Y13; \
	VCMPPD    $0x00, Y13, Y6, Y13; \
	VBLENDVPD Y13, Y6, Y12, Y12; \
	VCMPPD    $0x1d, FIVEEIGHTHS, Y7, Y13; \
	VBLENDVPD Y13, Y0, Y12, Y12; \
	VCMPPD    $0x1e, HALFMAXLOG, Y7, Y13; \
	VORPD     ONE, Y8, Y1; \
	VBLENDVPD Y13, Y1, Y12, Y12

// func expavx(x *float64, n uintptr) uintptr
TEXT ·expavx(SB), NOSPLIT, $0-24
	KERNEL_ENTRY

exp_loop:
	CMPQ AX, DX
	JGE  exp_done
	VMOVUPD (DI)(AX*8), Y0
	EXP_OUTSIDE(Y0)
	JNZ  exp_done
	EXP_PLAIN
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  exp_loop

exp_done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func expfmaavx(x *float64, n uintptr) uintptr
TEXT ·expfmaavx(SB), NOSPLIT, $0-24
	KERNEL_ENTRY

expfma_loop:
	CMPQ AX, DX
	JGE  expfma_done
	VMOVUPD (DI)(AX*8), Y0
	EXP_OUTSIDE(Y0)
	JNZ  expfma_done
	EXP_FMA
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  expfma_loop

expfma_done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func logisticavx(x *float64, n uintptr) uintptr
TEXT ·logisticavx(SB), NOSPLIT, $0-24
	KERNEL_ENTRY

logistic_loop:
	CMPQ AX, DX
	JGE  logistic_done
	VMOVUPD (DI)(AX*8), Y0
	EXP_OUTSIDE(Y0)
	JNZ  logistic_done
	LOGISTIC_BLOCK(EXP_PLAIN)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  logistic_loop

logistic_done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func logisticfmaavx(x *float64, n uintptr) uintptr
TEXT ·logisticfmaavx(SB), NOSPLIT, $0-24
	KERNEL_ENTRY

logisticfma_loop:
	CMPQ AX, DX
	JGE  logisticfma_done
	VMOVUPD (DI)(AX*8), Y0
	EXP_OUTSIDE(Y0)
	JNZ  logisticfma_done
	LOGISTIC_BLOCK(EXP_FMA)
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  logisticfma_loop

logisticfma_done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func tanhavx(x *float64, n uintptr) uintptr
//
// tanh calls exp only on 2|x| ≤ MAXLOG, inside the fast range; lanes
// where exp's input leaves it are blended away. Only NaN stops it.
TEXT ·tanhavx(SB), NOSPLIT, $0-24
	KERNEL_ENTRY

tanh_loop:
	CMPQ AX, DX
	JGE  tanh_done
	VMOVUPD   (DI)(AX*8), Y6
	VCMPPD    $0x03, Y6, Y6, Y1
	VMOVMSKPD Y1, BX
	TESTQ     BX, BX
	JNZ       tanh_done
	TANH_BLOCK(EXP_PLAIN)
	VMOVUPD Y12, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tanh_loop

tanh_done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func tanhfmaavx(x *float64, n uintptr) uintptr
TEXT ·tanhfmaavx(SB), NOSPLIT, $0-24
	KERNEL_ENTRY

tanhfma_loop:
	CMPQ AX, DX
	JGE  tanhfma_done
	VMOVUPD   (DI)(AX*8), Y6
	VCMPPD    $0x03, Y6, Y6, Y1
	VMOVMSKPD Y1, BX
	TESTQ     BX, BX
	JNZ       tanhfma_done
	TANH_BLOCK(EXP_FMA)
	VMOVUPD Y12, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tanhfma_loop

tanhfma_done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func reluavx(x *float64, n uintptr) uintptr
//
// x = +0 where x < 0 (an ordered compare: −0 and NaN stay). It has no
// range to leave, so it always finishes n&^3 elements.
TEXT ·reluavx(SB), NOSPLIT, $0-24
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	VXORPD Y15, Y15, Y15

relu_loop:
	CMPQ AX, DX
	JGE  relu_done
	VMOVUPD (DI)(AX*8), Y0
	VCMPPD  $0x11, Y15, Y0, Y1
	VANDNPD Y0, Y1, Y0
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ $4, AX
	JMP  relu_loop

relu_done:
	VZEROUPPER
	MOVQ AX, ret+16(FP)
	RET

// func logisticderivavx(d, a *float64, n uintptr)
//
// d = ((1−a)·a)·d, the operand order of the compiled Go loop.
TEXT ·logisticderivavx(SB), NOSPLIT, $0-24
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    n+16(FP), DX
	ANDQ    $-4, DX
	XORQ    AX, AX
	VMOVUPD ONE, Y15

logisticderiv_loop:
	CMPQ AX, DX
	JGE  logisticderiv_done
	VMOVUPD (SI)(AX*8), Y0
	VSUBPD  Y0, Y15, Y1
	VMULPD  Y0, Y1, Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  logisticderiv_loop

logisticderiv_done:
	VZEROUPPER
	RET

// func tanhderivavx(d, a *float64, n uintptr)
//
// d = (1−a·a)·d.
TEXT ·tanhderivavx(SB), NOSPLIT, $0-24
	MOVQ    d+0(FP), DI
	MOVQ    a+8(FP), SI
	MOVQ    n+16(FP), DX
	ANDQ    $-4, DX
	XORQ    AX, AX
	VMOVUPD ONE, Y15

tanhderiv_loop:
	CMPQ AX, DX
	JGE  tanhderiv_done
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  Y0, Y0, Y1
	VSUBPD  Y1, Y15, Y1
	VMULPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ $4, AX
	JMP  tanhderiv_loop

tanhderiv_done:
	VZEROUPPER
	RET

// func reluderivavx(d, a *float64, n uintptr)
//
// d = +0 where a ≤ 0 (ordered: a NaN a leaves d).
TEXT ·reluderivavx(SB), NOSPLIT, $0-24
	MOVQ   d+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   n+16(FP), DX
	ANDQ   $-4, DX
	XORQ   AX, AX
	VXORPD Y15, Y15, Y15

reluderiv_loop:
	CMPQ AX, DX
	JGE  reluderiv_done
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $0x12, Y15, Y0, Y1
	VMOVUPD (DI)(AX*8), Y2
	VANDNPD Y2, Y1, Y2
	VMOVUPD Y2, (DI)(AX*8)
	ADDQ $4, AX
	JMP  reluderiv_loop

reluderiv_done:
	VZEROUPPER
	RET
