#include "textflag.h"

// Row-span kernels: reduce one destination row's in-edge list into 8, 16 or
// 32 output columns held in YMM accumulators, in ascending in-edge order,
// lane = output column. Every edge's row index is range-checked before it
// is used (unsigned compare, so a negative id fails too); a failed check
// returns false with nothing further read, and the caller re-runs the Go
// form, whose own slice check raises the panic. Strides are in bytes.

// ROW loads the next in-edge's operand row index, checks it against the
// operand's row count and leaves the row's byte offset in AX.
#define ROW \
	MOVL  (DX), AX; \
	CMPQ  AX, R9; \
	JAE   bad; \
	IMULQ R8, AX; \
	ADDQ  $4, DX

// WEIGHT loads the next in-edge's scalar operand index, checks it and
// broadcasts the scalar into Y4.
#define WEIGHT \
	MOVL         (R12), BX; \
	CMPQ         BX, R13; \
	JAE          bad; \
	VBROADCASTSS (R11)(BX*4), Y4; \
	ADDQ         $4, R12

#define SPANARGS \
	MOVQ acc+0(FP), DI; \
	MOVQ nvec+8(FP), R10; \
	MOVQ data+16(FP), SI; \
	MOVQ stride+24(FP), R8; \
	MOVQ idx+32(FP), DX; \
	MOVQ n+40(FP), CX; \
	MOVQ rows+48(FP), R9

#define STORE1 \
	VMOVUPS Y0, (DI)

#define STORE2 \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI)

#define STORE4 \
	VMOVUPS Y0, (DI); \
	VMOVUPS Y1, 32(DI); \
	VMOVUPS Y2, 64(DI); \
	VMOVUPS Y3, 96(DI)

// EXTREME is the three pass loops of spanMax and spanMin, which differ in one
// instruction. VMAXPS/VMINPS return their second source when either is NaN
// or both are zeros; with the loaded row as first source and the accumulator
// as second that is Go's `if s > c { c = s }`: a NaN or an equal-valued zero
// never replaces the accumulator. (Go operand order: second source, first
// source, destination.)
#define EXTREME(OP) \
	CMPQ R10, $4; \
	JEQ  ext4; \
	CMPQ R10, $2; \
	JEQ  ext2; \
ext1: \
	ROW; \
	VMOVUPS (SI)(AX*1), Y4; \
	OP      Y0, Y4, Y0; \
	DECQ    CX; \
	JNZ     ext1; \
	STORE1; \
	JMP     ok; \
ext2: \
	ROW; \
	VMOVUPS (SI)(AX*1), Y4; \
	VMOVUPS 32(SI)(AX*1), Y5; \
	OP      Y0, Y4, Y0; \
	OP      Y1, Y5, Y1; \
	DECQ    CX; \
	JNZ     ext2; \
	STORE2; \
	JMP     ok; \
ext4: \
	ROW; \
	VMOVUPS (SI)(AX*1), Y4; \
	VMOVUPS 32(SI)(AX*1), Y5; \
	VMOVUPS 64(SI)(AX*1), Y6; \
	VMOVUPS 96(SI)(AX*1), Y7; \
	OP      Y0, Y4, Y0; \
	OP      Y1, Y5, Y1; \
	OP      Y2, Y6, Y2; \
	OP      Y3, Y7, Y3; \
	DECQ    CX; \
	JNZ     ext4; \
	STORE4

// func spanSum(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int) bool
TEXT ·spanSum(SB), NOSPLIT, $0-57
	SPANARGS
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ   R10, $4
	JEQ    sum4
	CMPQ   R10, $2
	JEQ    sum2

sum1:
	ROW
	VADDPS (SI)(AX*1), Y0, Y0
	DECQ   CX
	JNZ    sum1
	STORE1
	JMP    ok

sum2:
	ROW
	VADDPS (SI)(AX*1), Y0, Y0
	VADDPS 32(SI)(AX*1), Y1, Y1
	DECQ   CX
	JNZ    sum2
	STORE2
	JMP    ok

sum4:
	ROW
	VADDPS (SI)(AX*1), Y0, Y0
	VADDPS 32(SI)(AX*1), Y1, Y1
	VADDPS 64(SI)(AX*1), Y2, Y2
	VADDPS 96(SI)(AX*1), Y3, Y3
	DECQ   CX
	JNZ    sum4
	STORE4

ok:
	MOVB $1, ret+56(FP)
	VZEROUPPER
	RET

bad:
	MOVB $0, ret+56(FP)
	VZEROUPPER
	RET

// func spanSumScaled(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, w *float32, widx *int32, wrows int) bool
//
// acc += row * w per in-edge: the product is rounded (VMULPS) before the add.
TEXT ·spanSumScaled(SB), NOSPLIT, $0-81
	SPANARGS
	MOVQ   w+56(FP), R11
	MOVQ   widx+64(FP), R12
	MOVQ   wrows+72(FP), R13
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	CMPQ   R10, $4
	JEQ    mul4
	CMPQ   R10, $2
	JEQ    mul2

mul1:
	ROW
	WEIGHT
	VMULPS (SI)(AX*1), Y4, Y5
	VADDPS Y5, Y0, Y0
	DECQ   CX
	JNZ    mul1
	STORE1
	JMP    ok

mul2:
	ROW
	WEIGHT
	VMULPS (SI)(AX*1), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(SI)(AX*1), Y4, Y6
	VADDPS Y6, Y1, Y1
	DECQ   CX
	JNZ    mul2
	STORE2
	JMP    ok

mul4:
	ROW
	WEIGHT
	VMULPS (SI)(AX*1), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(SI)(AX*1), Y4, Y6
	VADDPS Y6, Y1, Y1
	VMULPS 64(SI)(AX*1), Y4, Y7
	VADDPS Y7, Y2, Y2
	VMULPS 96(SI)(AX*1), Y4, Y8
	VADDPS Y8, Y3, Y3
	DECQ   CX
	JNZ    mul4
	STORE4

ok:
	MOVB $1, ret+80(FP)
	VZEROUPPER
	RET

bad:
	MOVB $0, ret+80(FP)
	VZEROUPPER
	RET

// func spanMax(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, identity float32) bool
TEXT ·spanMax(SB), NOSPLIT, $0-65
	SPANARGS
	VBROADCASTSS identity+56(FP), Y0
	VMOVAPS      Y0, Y1
	VMOVAPS      Y0, Y2
	VMOVAPS      Y0, Y3
	EXTREME(VMAXPS)

ok:
	MOVB $1, ret+64(FP)
	VZEROUPPER
	RET

bad:
	MOVB $0, ret+64(FP)
	VZEROUPPER
	RET

// func spanMin(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, identity float32) bool
TEXT ·spanMin(SB), NOSPLIT, $0-65
	SPANARGS
	VBROADCASTSS identity+56(FP), Y0
	VMOVAPS      Y0, Y1
	VMOVAPS      Y0, Y2
	VMOVAPS      Y0, Y3
	EXTREME(VMINPS)

ok:
	MOVB $1, ret+64(FP)
	VZEROUPPER
	RET

bad:
	MOVB $0, ret+64(FP)
	VZEROUPPER
	RET
