#include "textflag.h"

// The bits of 1.0 (also the exponent bias, 127<<23) and of +Inf.
DATA expOne<>+0(SB)/4, $0x3F800000
GLOBL expOne<>(SB), RODATA|NOPTR, $4
DATA expInf<>+0(SB)/4, $0x7F800000
GLOBL expInf<>(SB), RODATA|NOPTR, $4

// func expVec(x *float32, n int, t *ExpTable)
//
// e^x over n eight-element vectors in place, by the scheme ExpTable documents:
// every step is the scalar definition's single rounded operation per lane
// (VMULPS then VADDPS/VSUBPS, never fused), the integer part is carried in the
// low mantissa bits of x*log2e + magic, and the three arms — NaN, overflow,
// underflow — are blended over whatever the main path made of such a lane, so
// a lane holds the scalar definition's bits. (Go operand order: second
// source, first source, destination; VSUBPS b, a, d is d = a - b.)
TEXT ·expVec(SB), NOSPLIT, $0-24
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         t+16(FP), SI
	VBROADCASTSS 0(SI), Y15  // log2e
	VBROADCASTSS 4(SI), Y14  // magic
	VBROADCASTSS 8(SI), Y13  // ln2Hi
	VBROADCASTSS 12(SI), Y12 // ln2Lo
	VBROADCASTSS 16(SI), Y11 // c5
	VBROADCASTSS 20(SI), Y10 // c4
	VBROADCASTSS 24(SI), Y9  // c3
	VBROADCASTSS 28(SI), Y8  // c2
	VBROADCASTSS 32(SI), Y7  // c1
	VBROADCASTSS 36(SI), Y6  // c0

exploop:
	VMOVUPS (DI), Y0

	// n = round(x*log2e): Y1 holds it as an integer, Y2 as a float.
	VMULPS Y15, Y0, Y1
	VADDPS Y14, Y1, Y1
	VSUBPS Y14, Y1, Y2
	VPSUBD Y14, Y1, Y1

	// r = (x - n*ln2Hi) - n*ln2Lo
	VMULPS Y13, Y2, Y3
	VSUBPS Y3, Y0, Y3
	VMULPS Y12, Y2, Y2
	VSUBPS Y2, Y3, Y3

	// y = 1 + r + r*r*P(r)
	VMULPS       Y11, Y3, Y4
	VADDPS       Y10, Y4, Y4
	VMULPS       Y3, Y4, Y4
	VADDPS       Y9, Y4, Y4
	VMULPS       Y3, Y4, Y4
	VADDPS       Y8, Y4, Y4
	VMULPS       Y3, Y4, Y4
	VADDPS       Y7, Y4, Y4
	VMULPS       Y3, Y4, Y4
	VADDPS       Y6, Y4, Y4
	VMULPS       Y3, Y3, Y5
	VMULPS       Y5, Y4, Y4
	VADDPS       Y3, Y4, Y4
	VBROADCASTSS expOne<>(SB), Y5
	VADDPS       Y5, Y4, Y4

	// e^x = (y * 2^(n>>1)) * 2^(n-(n>>1))
	VPSRAD $1, Y1, Y2
	VPSUBD Y2, Y1, Y1
	VPSLLD $23, Y2, Y2
	VPSLLD $23, Y1, Y1
	VPADDD Y5, Y2, Y2
	VPADDD Y5, Y1, Y1
	VMULPS Y2, Y4, Y4
	VMULPS Y1, Y4, Y4

	// x > hi: +Inf. x < lo: 0. x unordered: x itself.
	VBROADCASTSS 40(SI), Y1
	VCMPPS       $0x1E, Y1, Y0, Y2
	VBROADCASTSS expInf<>(SB), Y3
	VBLENDVPS    Y2, Y3, Y4, Y4
	VBROADCASTSS 44(SI), Y1
	VCMPPS       $0x11, Y1, Y0, Y2
	VXORPS       Y3, Y3, Y3
	VBLENDVPS    Y2, Y3, Y4, Y4
	VCMPPS       $0x03, Y0, Y0, Y2
	VBLENDVPS    Y2, Y0, Y4, Y4

	VMOVUPS Y4, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JNZ     exploop
	VZEROUPPER
	RET
