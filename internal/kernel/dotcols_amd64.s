// AVX2 column-block dot kernel. See dotcols_amd64.go for the contract:
// out[c] = sum over j (ascending) of x[j] * ct[j*stride + c], for c in
// [0, k&^3). Each center's sum is accumulated strictly in ascending j
// order (one VADDPD per j per lane group), so the result is
// bit-identical to the scalar column loop in dotcols.go — vector lanes
// hold different centers, never partial sums of one center, so no
// floating-point reassociation happens. FMA is deliberately not used:
// it would round differently from the scalar mul-then-add.

#include "textflag.h"

// func dotColsAVX2(x *float64, d int, ct *float64, stride, k int, out *float64)
TEXT ·dotColsAVX2(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ d+8(FP), DX
	MOVQ ct+16(FP), BX
	MOVQ stride+24(FP), CX // row stride of ct, in elements
	MOVQ k+32(FP), R8
	MOVQ out+40(FP), DI

	ANDQ $-4, R8       // R8 = k &^ 3, centers handled here
	XORQ R9, R9        // c = 0
	TESTQ DX, DX
	JZ   zerotail      // d == 0: every dot is 0

block16:
	MOVQ R8, R10
	SUBQ R9, R10
	CMPQ R10, $16
	JLT  block4        // fewer than 16 centers left

	LEAQ (BX)(R9*8), R11   // &ct[c], walks down the columns by stride
	VXORPD Y0, Y0, Y0      // accumulators: centers c+0..3, 4..7, 8..11, 12..15
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R12           // &x[0]
	MOVQ DX, R13           // j countdown

j16:
	VBROADCASTSD (R12), Y4
	VMOVUPD (R11), Y5
	VMOVUPD 32(R11), Y6
	VMOVUPD 64(R11), Y7
	VMOVUPD 96(R11), Y8
	VMULPD Y4, Y5, Y5
	VMULPD Y4, Y6, Y6
	VMULPD Y4, Y7, Y7
	VMULPD Y4, Y8, Y8
	VADDPD Y5, Y0, Y0
	VADDPD Y6, Y1, Y1
	VADDPD Y7, Y2, Y2
	VADDPD Y8, Y3, Y3
	ADDQ $8, R12
	LEAQ (R11)(CX*8), R11  // next matrix row of the same columns
	DECQ R13
	JNZ  j16

	LEAQ (DI)(R9*8), AX
	VMOVUPD Y0, (AX)
	VMOVUPD Y1, 32(AX)
	VMOVUPD Y2, 64(AX)
	VMOVUPD Y3, 96(AX)
	ADDQ $16, R9
	JMP  block16

block4:
	CMPQ R9, R8
	JGE  done

	LEAQ (BX)(R9*8), R11
	VXORPD Y0, Y0, Y0
	MOVQ SI, R12
	MOVQ DX, R13

j4:
	VBROADCASTSD (R12), Y4
	VMOVUPD (R11), Y5
	VMULPD Y4, Y5, Y5
	VADDPD Y5, Y0, Y0
	ADDQ $8, R12
	LEAQ (R11)(CX*8), R11
	DECQ R13
	JNZ  j4

	LEAQ (DI)(R9*8), AX
	VMOVUPD Y0, (AX)
	ADDQ $4, R9
	JMP  block4

zerotail:
	CMPQ R9, R8
	JGE  done
	MOVQ $0, (DI)(R9*8)
	INCQ R9
	JMP  zerotail

done:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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

DATA posinf<>+0(SB)/8, $0x7ff0000000000000
GLOBL posinf<>(SB), RODATA|NOPTR, $8

// func min2GAVX2(norms, dots *float64, n int) (m1, m2 float64)
//
// The two smallest of g[s] = norms[s] - 2*dots[s], s in [0, n), n a
// positive multiple of 4: m1 the minimum, m2 the next value up (m1 again
// if the minimum occurs twice). Each g is rounded exactly as the scalar
// expression rounds it (2*dots[s] is exact); every lane keeps its own
// pair (m2 = min(m2, max(m1, g)), m1 = min(m1, g)), and pairs merge as
// (min(a1, b1), min(a2, b2, max(a1, b1))). Only the comparison order
// differs from the scalar loop, which cannot change either value for
// non-NaN inputs.
TEXT ·min2GAVX2(SB), NOSPLIT, $0-40
	MOVQ norms+0(FP), SI
	MOVQ dots+8(FP), DI
	MOVQ n+16(FP), CX

	// The first four g values seed lane set 0's minima; everything else
	// starts at +Inf.
	VMOVUPD (DI), Y4
	VADDPD Y4, Y4, Y4
	VMOVUPD (SI), Y0
	VSUBPD Y4, Y0, Y0
	VBROADCASTSD posinf<>(SB), Y1
	VMOVAPD Y1, Y2
	VMOVAPD Y1, Y3
	MOVQ $4, BX

min8:
	LEAQ 8(BX), AX
	CMPQ AX, CX
	JGT  min4
	VMOVUPD (DI)(BX*8), Y4
	VMOVUPD 32(DI)(BX*8), Y5
	VADDPD Y4, Y4, Y4
	VADDPD Y5, Y5, Y5
	VMOVUPD (SI)(BX*8), Y6
	VMOVUPD 32(SI)(BX*8), Y7
	VSUBPD Y4, Y6, Y6
	VSUBPD Y5, Y7, Y7
	VMAXPD Y6, Y0, Y4
	VMAXPD Y7, Y1, Y5
	VMINPD Y6, Y0, Y0
	VMINPD Y7, Y1, Y1
	VMINPD Y4, Y2, Y2
	VMINPD Y5, Y3, Y3
	MOVQ AX, BX
	JMP  min8

min4:
	CMPQ BX, CX
	JGE  minmerge
	VMOVUPD (DI)(BX*8), Y4
	VADDPD Y4, Y4, Y4
	VMOVUPD (SI)(BX*8), Y6
	VSUBPD Y4, Y6, Y6
	VMAXPD Y6, Y0, Y4
	VMINPD Y6, Y0, Y0
	VMINPD Y4, Y2, Y2
	ADDQ $4, BX
	JMP  min4

minmerge:
	// Set 1 into set 0, then the upper 128 bits into the lower, then
	// lane 1 into lane 0.
	VMAXPD Y1, Y0, Y4
	VMINPD Y1, Y0, Y0
	VMINPD Y3, Y2, Y2
	VMINPD Y4, Y2, Y2
	VEXTRACTF128 $1, Y0, X1
	VEXTRACTF128 $1, Y2, X3
	VMAXPD X1, X0, X4
	VMINPD X1, X0, X0
	VMINPD X3, X2, X2
	VMINPD X4, X2, X2
	VPERMILPD $1, X0, X1
	VPERMILPD $1, X2, X3
	VMAXSD X1, X0, X4
	VMINSD X1, X0, X0
	VMINSD X3, X2, X2
	VMINSD X4, X2, X2
	VZEROUPPER
	MOVSD X0, m1+24(FP)
	MOVSD X2, m2+32(FP)
	RET
