//go:build amd64 && !purego

#include "textflag.h"

// func uniformavx(s *[4][4]uint64, d0, d1, d2, d3 *float64, n uintptr, scale float64, sq *[4]float64)
//
// Four xoshiro256** generators, one per lane, each step FillUniform's
// loop body on all four: Y0–Y3 hold state words 0–3 of the four lanes.
// AVX2 has no 64-bit multiply, so s1·5 is (s1<<2)+s1 and ·9 is
// (r<<3)+r, the same wrapped products. Nor has it a packed int64 →
// double conversion: x = result>>11 (< 2⁵³) becomes x − 2⁵² exactly as
// (2⁵² + lo) − c, where lo is x's low 52 bits, OR-ed into 2⁵²'s bit
// pattern, and c is 2⁵³ or, when x's bit 52 is set, 2⁵² (that bit
// subtracted from 2⁵³'s exponent field): both operands and the
// difference are exact. The product with scale is FillUniform's one
// rounding, and each lane's sum of squares (Y15) is its own sequential
// chain, so lanes are independent throughout and every lane is its
// generator's scalar fill bit for bit. The four values of a step go to
// four slices, one store each.
TEXT ·uniformavx(SB), NOSPLIT, $0-64
	MOVQ         s+0(FP), AX
	MOVQ         d0+8(FP), R8
	MOVQ         d1+16(FP), R9
	MOVQ         d2+24(FP), R10
	MOVQ         d3+32(FP), R11
	MOVQ         n+40(FP), DX
	VBROADCASTSD scale+48(FP), Y12
	MOVQ         sq+56(FP), BX
	VMOVDQU      (AX), Y0
	VMOVDQU      32(AX), Y1
	VMOVDQU      64(AX), Y2
	VMOVDQU      96(AX), Y3
	VMOVUPD      (BX), Y15
	MOVQ         $0x000fffffffffffff, CX
	MOVQ         CX, X13
	VPBROADCASTQ X13, Y13            // low 52 bits
	MOVQ         $0x4330000000000000, CX
	MOVQ         CX, X14
	VPBROADCASTQ X14, Y14            // 2⁵²
	MOVQ         $0x4340000000000000, CX
	MOVQ         CX, X11
	VPBROADCASTQ X11, Y11            // 2⁵³
	XORQ         CX, CX

uniform_loop:
	CMPQ    CX, DX
	JGE     uniform_done
	VPSLLQ  $2, Y1, Y4
	VPADDQ  Y1, Y4, Y4               // s1·5
	VPSLLQ  $7, Y4, Y5
	VPSRLQ  $57, Y4, Y4
	VPOR    Y5, Y4, Y4               // rotl(s1·5, 7)
	VPSLLQ  $3, Y4, Y5
	VPADDQ  Y4, Y5, Y4               // result = rotl(s1·5, 7)·9
	VPSLLQ  $17, Y1, Y5              // t
	VPXOR   Y0, Y2, Y2               // s2 ^= s0
	VPXOR   Y1, Y3, Y3               // s3 ^= s1
	VPXOR   Y2, Y1, Y1               // s1 ^= s2
	VPXOR   Y3, Y0, Y0               // s0 ^= s3
	VPXOR   Y5, Y2, Y2               // s2 ^= t
	VPSLLQ  $45, Y3, Y5
	VPSRLQ  $19, Y3, Y3
	VPOR    Y5, Y3, Y3               // s3 = rotl(s3, 45)
	VPSRLQ  $11, Y4, Y4              // x
	VPAND   Y13, Y4, Y5              // lo
	VPXOR   Y5, Y4, Y4               // x's bit 52
	VPOR    Y14, Y5, Y5              // 2⁵² + lo
	VPSUBQ  Y4, Y11, Y4              // c
	VSUBPD  Y4, Y5, Y5               // x − 2⁵²
	VMULPD  Y12, Y5, Y5              // v
	VMULPD  Y5, Y5, Y6
	VADDPD  Y6, Y15, Y15             // sq += v·v
	VMOVSD  X5, (R8)(CX*8)
	VMOVHPD X5, (R9)(CX*8)
	VEXTRACTF128 $1, Y5, X5
	VMOVSD  X5, (R10)(CX*8)
	VMOVHPD X5, (R11)(CX*8)
	INCQ    CX
	JMP     uniform_loop

uniform_done:
	VMOVDQU Y0, (AX)
	VMOVDQU Y1, 32(AX)
	VMOVDQU Y2, 64(AX)
	VMOVDQU Y3, 96(AX)
	VMOVUPD Y15, (BX)
	VZEROUPPER
	RET
