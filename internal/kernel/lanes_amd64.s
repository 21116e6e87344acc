// AVX2 lane kernels. See lanes.go for the contract: vector lanes hold
// independent values (rotated elements, partner points), each lane runs
// the scalar code's operations in its order, and every product is
// rounded before it is added or subtracted (no FMA), so the results are
// bit-identical to the generic Go loops.

#include "textflag.h"

// func rotateAVX2(x, y *float64, n int, c, s float64)
//
// x[k], y[k] = c*x[k] - s*y[k], s*x[k] + c*y[k] for k in [0, n), n > 0:
// four elements a step, then the n mod 4 tail one at a time with the
// same operations on scalar registers.
TEXT ·rotateAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD c+24(FP), Y0
	VBROADCASTSD s+32(FP), Y1
	MOVQ CX, DX
	ANDQ $-4, DX               // DX = n &^ 3
	XORQ AX, AX
	TESTQ DX, DX
	JZ   rot1

rot4:
	VMOVUPD (SI)(AX*8), Y2     // x
	VMOVUPD (DI)(AX*8), Y3     // y
	VMULPD  Y2, Y0, Y4         // c*x
	VMULPD  Y3, Y1, Y5         // s*y
	VMULPD  Y2, Y1, Y6         // s*x
	VMULPD  Y3, Y0, Y7         // c*y
	VSUBPD  Y5, Y4, Y4         // c*x - s*y
	VADDPD  Y7, Y6, Y6         // s*x + c*y
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     rot4

rot1:
	CMPQ    AX, CX
	JGE     rotdone
	VMOVSD  (SI)(AX*8), X2
	VMOVSD  (DI)(AX*8), X3
	VMULSD  X2, X0, X4
	VMULSD  X3, X1, X5
	VMULSD  X2, X1, X6
	VMULSD  X3, X0, X7
	VSUBSD  X5, X4, X4
	VADDSD  X7, X6, X6
	VMOVSD  X4, (SI)(AX*8)
	VMOVSD  X6, (DI)(AX*8)
	INCQ    AX
	JMP     rot1

rotdone:
	VZEROUPPER
	RET

// func distanceRowAVX2(xi, pj *float64, stride, k, m int, out *float64)
//
// Point i against the m partners starting at pj (m a positive multiple
// of 4, k > 0), in a column-major block of row stride `stride`: xi
// points at coordinate 0 of point i, pj at coordinate 0 of the first
// partner, and coordinate c lies c*stride elements further on. Lane l
// of a group holds partner l: accumulators Y0..Y3 take coordinates
// c mod 4 = 0..3, the k mod 4 tail goes into Y0, and the lanes combine
// as (Y0+Y1)+(Y2+Y3) before the square root.
TEXT ·distanceRowAVX2(SB), NOSPLIT, $0-48
	MOVQ xi+0(FP), SI
	MOVQ pj+8(FP), DI
	MOVQ stride+16(FP), CX
	SHLQ $3, CX                // stride in bytes
	MOVQ k+24(FP), DX
	MOVQ m+32(FP), R8
	MOVQ out+40(FP), R9
	MOVQ DX, R10
	ANDQ $-4, R10              // R10 = k &^ 3
	SUBQ R10, DX               // DX = k & 3, the tail

group:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   SI, R11             // &coordinate c of point i
	MOVQ   DI, R12             // &coordinate c of the group's partners
	MOVQ   R10, R13
	TESTQ  R13, R13
	JZ     tail

quad:
	VBROADCASTSD (R11), Y4
	VMOVUPD (R12), Y5
	VSUBPD  Y5, Y4, Y5         // e = x_i - x_j
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    CX, R11
	ADDQ    CX, R12
	VBROADCASTSD (R11), Y4
	VMOVUPD (R12), Y6
	VSUBPD  Y6, Y4, Y6
	VMULPD  Y6, Y6, Y6
	VADDPD  Y6, Y1, Y1
	ADDQ    CX, R11
	ADDQ    CX, R12
	VBROADCASTSD (R11), Y4
	VMOVUPD (R12), Y7
	VSUBPD  Y7, Y4, Y7
	VMULPD  Y7, Y7, Y7
	VADDPD  Y7, Y2, Y2
	ADDQ    CX, R11
	ADDQ    CX, R12
	VBROADCASTSD (R11), Y4
	VMOVUPD (R12), Y8
	VSUBPD  Y8, Y4, Y8
	VMULPD  Y8, Y8, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ    CX, R11
	ADDQ    CX, R12
	SUBQ    $4, R13
	JNZ     quad

tail:
	MOVQ  DX, R13
	TESTQ R13, R13
	JZ    combine

tail1:
	VBROADCASTSD (R11), Y4
	VMOVUPD (R12), Y5
	VSUBPD  Y5, Y4, Y5
	VMULPD  Y5, Y5, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ    CX, R11
	ADDQ    CX, R12
	DECQ    R13
	JNZ     tail1

combine:
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VSQRTPD Y0, Y0
	VMOVUPD Y0, (R9)
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $4, R8
	JNZ     group

	VZEROUPPER
	RET
