#include "textflag.h"

// Lane = output column everywhere: a packed panel row is one YMM register,
// the A element is broadcast, and each lane runs VMULPS then VADDPS in
// ascending k — the scalar Go loop's two roundings, eight columns at a time.
// Strides are in bytes. With acc != 0 the accumulators start from what out
// holds instead of +0: the continuation of an add chain a previous call left
// there (split-weight GEMM).

// func gemmRowPanels4(out, a, panel *float32, rows, k, ostride, pstride, acc int)
//
// One A row x four consecutive panels (32 output columns, four independent
// accumulator chains), for rows contiguous A rows of k floats each.
TEXT ·gemmRowPanels4(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ k+32(FP), R8
	MOVQ ostride+40(FP), R9
	MOVQ pstride+48(FP), R10
	MOVQ acc+56(FP), R13
	LEAQ (R10)(R10*2), R11

row4p:
	TESTQ   R13, R13
	JNZ     load4p
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	JMP     start4p

load4p:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3

start4p:
	MOVQ DX, BX
	MOVQ R8, AX

k4p:
	VBROADCASTSS (SI), Y4
	VMULPS       (BX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       (BX)(R10*1), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       (BX)(R10*2), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       (BX)(R11*1), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, SI
	ADDQ         $32, BX
	DECQ         AX
	JNZ          k4p

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    R9, DI
	DECQ    CX
	JNZ     row4p
	VZEROUPPER
	RET

// func gemmRows4Panel(out, a, panel *float32, groups, k, ostride, acc int)
//
// Four consecutive A rows x one panel (eight output columns per row, four
// independent chains), for groups groups of four rows.
TEXT ·gemmRows4Panel(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ groups+24(FP), CX
	MOVQ k+32(FP), R8
	MOVQ ostride+40(FP), R9
	MOVQ acc+48(FP), R13
	LEAQ (R8*4), R10
	LEAQ (R10)(R10*2), R11
	LEAQ (R9)(R9*2), R12

group4r:
	TESTQ   R13, R13
	JNZ     load4r
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	JMP     start4r

load4r:
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(R9*1), Y1
	VMOVUPS (DI)(R9*2), Y2
	VMOVUPS (DI)(R12*1), Y3

start4r:
	MOVQ DX, BX
	MOVQ R8, AX

k4r:
	VMOVUPS      (BX), Y4
	VBROADCASTSS (SI), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (SI)(R10*1), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (SI)(R10*2), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (SI)(R11*1), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, SI
	ADDQ         $32, BX
	DECQ         AX
	JNZ          k4r

	ADDQ    R11, SI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(R9*1)
	VMOVUPS Y2, (DI)(R9*2)
	VMOVUPS Y3, (DI)(R12*1)
	LEAQ    (DI)(R9*4), DI
	DECQ    CX
	JNZ     group4r
	VZEROUPPER
	RET

// func gemmRow1Panel(out, a, panel *float32, rows, k, ostride, acc int)
//
// One A row x one panel, one chain: the rows a four-row group does not cover
// when they cannot be recomputed (an accumulating call must touch every
// element exactly once).
TEXT ·gemmRow1Panel(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ panel+16(FP), DX
	MOVQ rows+24(FP), CX
	MOVQ k+32(FP), R8
	MOVQ ostride+40(FP), R9
	MOVQ acc+48(FP), R13

row1:
	VXORPS  Y0, Y0, Y0
	TESTQ   R13, R13
	JZ      start1
	VMOVUPS (DI), Y0

start1:
	MOVQ DX, BX
	MOVQ R8, AX

k1:
	VBROADCASTSS (SI), Y4
	VMULPS       (BX), Y4, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $32, BX
	DECQ         AX
	JNZ          k1

	VMOVUPS Y0, (DI)
	ADDQ    R9, DI
	DECQ    CX
	JNZ     row1
	VZEROUPPER
	RET
