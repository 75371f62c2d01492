#include "textflag.h"

// Elementwise kernels: lane = element, eight per YMM register, n counted in
// eight-element vectors. Each is the scalar Go loop's operation per lane, so
// a result is the Go loop's to the bit.

// func relu(x *float32, n int)
//
// x = max(+0, x) with x as the second source: VMAXPS returns its second
// source when either is NaN or both are zeros, so a NaN keeps its payload and
// sign and -0 stays -0 — Go's `if v < 0 { v = 0 }`. (Go operand order: second
// source, first source, destination.)
TEXT ·relu(SB), NOSPLIT, $0-16
	MOVQ   x+0(FP), DI
	MOVQ   n+8(FP), CX
	VXORPS Y0, Y0, Y0

relu4:
	CMPQ    CX, $4
	JLT     relu1
	VMAXPS  (DI), Y0, Y1
	VMAXPS  32(DI), Y0, Y2
	VMAXPS  64(DI), Y0, Y3
	VMAXPS  96(DI), Y0, Y4
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	VMOVUPS Y3, 64(DI)
	VMOVUPS Y4, 96(DI)
	ADDQ    $128, DI
	SUBQ    $4, CX
	JMP     relu4

relu1:
	TESTQ   CX, CX
	JZ      reludone
	VMAXPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JMP     relu1

reludone:
	VZEROUPPER
	RET

// func leakyRelu(x *float32, n int, alpha float32)
//
// x = x < 0 ? alpha*x : x. The compare is ordered (false on a NaN) and -0 is
// not below 0, so both pass through untouched; the product is rounded once,
// as the Go loop's is.
TEXT ·leakyRelu(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS alpha+16(FP), Y15
	VXORPS       Y0, Y0, Y0

leaky2:
	CMPQ      CX, $2
	JLT       leaky1
	VMOVUPS   (DI), Y1
	VMOVUPS   32(DI), Y5
	VMULPS    Y1, Y15, Y2
	VMULPS    Y5, Y15, Y6
	VCMPPS    $0x11, Y0, Y1, Y3
	VCMPPS    $0x11, Y0, Y5, Y7
	VBLENDVPS Y3, Y2, Y1, Y4
	VBLENDVPS Y7, Y6, Y5, Y8
	VMOVUPS   Y4, (DI)
	VMOVUPS   Y8, 32(DI)
	ADDQ      $64, DI
	SUBQ      $2, CX
	JMP       leaky2

leaky1:
	TESTQ     CX, CX
	JZ        leakydone
	VMOVUPS   (DI), Y1
	VMULPS    Y1, Y15, Y2
	VCMPPS    $0x11, Y0, Y1, Y3
	VBLENDVPS Y3, Y2, Y1, Y4
	VMOVUPS   Y4, (DI)

leakydone:
	VZEROUPPER
	RET

// func addScaled(out, a, b *float32, n int, s float32)
//
// out = a + s*b: the product rounded (VMULPS) before the add, never fused.
TEXT ·addScaled(SB), NOSPLIT, $0-36
	MOVQ         out+0(FP), DI
	MOVQ         a+8(FP), SI
	MOVQ         b+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSS s+32(FP), Y15

adds2:
	CMPQ    CX, $2
	JLT     adds1
	VMULPS  (DX), Y15, Y1
	VMULPS  32(DX), Y15, Y2
	VADDPS  (SI), Y1, Y1
	VADDPS  32(SI), Y2, Y2
	VMOVUPS Y1, (DI)
	VMOVUPS Y2, 32(DI)
	ADDQ    $64, DI
	ADDQ    $64, SI
	ADDQ    $64, DX
	SUBQ    $2, CX
	JMP     adds2

adds1:
	TESTQ   CX, CX
	JZ      addsdone
	VMULPS  (DX), Y15, Y1
	VADDPS  (SI), Y1, Y1
	VMOVUPS Y1, (DI)

addsdone:
	VZEROUPPER
	RET
