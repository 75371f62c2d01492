#include "textflag.h"

// Edge-output kernels: out row i = a row i OP b row i over n rows of nvec
// eight-column vectors, lane = output column. An operand's row i is either
// row i of its data (a nil index array: the cursor advances a row per edge) or
// row idx[i], range-checked before it is used (unsigned compare, so a negative
// id fails too); a failed check returns how many rows were finished, with
// nothing read through the bad index, and the caller's Go loop, resuming
// there, raises the panic from its own slice check.

// OPERAND leaves the operand's current row address in ROW: base register
// BASE is the data's first row (indexed) or the cursor (sequential), IDX the
// index cursor or zero, ROWS the operand's row count, R15 the row's bytes.
#define OPERAND(BASE, IDX, ROWS, ROW, SEQ, GOT) \
	TESTQ IDX, IDX; \
	JZ    SEQ; \
	MOVL  (IDX), AX; \
	CMPQ  AX, ROWS; \
	JAE   done; \
	IMULQ R15, AX; \
	LEAQ  (BASE)(AX*1), ROW; \
	ADDQ  $4, IDX; \
	JMP   GOT; \
SEQ: \
	MOVQ  BASE, ROW; \
	ADDQ  R15, BASE; \
GOT:

// EDGEKERNEL is the whole body; OP is the one instruction the four differ in
// (Go operand order: OP b, a, d is d = a OP b).
#define EDGEKERNEL(OP) \
	MOVQ out+0(FP), DI; \
	MOVQ nvec+8(FP), R14; \
	MOVQ n+16(FP), CX; \
	MOVQ a+24(FP), SI; \
	MOVQ idxA+32(FP), R10; \
	MOVQ rowsA+40(FP), R11; \
	MOVQ b+48(FP), DX; \
	MOVQ idxB+56(FP), R12; \
	MOVQ rowsB+64(FP), R13; \
	MOVQ R14, R15; \
	SHLQ $5, R15; \
edge: \
	OPERAND(SI, R10, R11, R8, aseq, agot) \
	OPERAND(DX, R12, R13, R9, bseq, bgot) \
	MOVQ R14, BX; \
col: \
	VMOVUPS (R8), Y0; \
	OP      (R9), Y0, Y0; \
	VMOVUPS Y0, (DI); \
	ADDQ    $32, R8; \
	ADDQ    $32, R9; \
	ADDQ    $32, DI; \
	DECQ    BX; \
	JNZ     col; \
	DECQ    CX; \
	JNZ     edge; \
done: \
	MOVQ n+16(FP), AX; \
	SUBQ CX, AX; \
	MOVQ AX, ret+72(FP); \
	VZEROUPPER; \
	RET

// func edgeAdd(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int
TEXT ·edgeAdd(SB), NOSPLIT, $0-80
	EDGEKERNEL(VADDPS)

// func edgeSub(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int
TEXT ·edgeSub(SB), NOSPLIT, $0-80
	EDGEKERNEL(VSUBPS)

// func edgeMul(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int
TEXT ·edgeMul(SB), NOSPLIT, $0-80
	EDGEKERNEL(VMULPS)

// func edgeDiv(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int
TEXT ·edgeDiv(SB), NOSPLIT, $0-80
	EDGEKERNEL(VDIVPS)

// func segmentSum(out *float32, nvec int, data *float32, ptr *int32, rows, base, limit int) int
//
// out row r = the sum, in ascending order from +0, of data rows
// [ptr[r]-base, ptr[r+1]-base), for r = 0, 1, ..., rows-1; rows are nvec
// eight-column vectors wide. A segment that starts below zero, ends before it
// starts or ends past limit stops the kernel with nothing read through it; the
// return value is how many rows were finished.
TEXT ·segmentSum(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ nvec+8(FP), R14
	MOVQ data+16(FP), SI
	MOVQ ptr+24(FP), DX
	MOVQ rows+32(FP), CX
	MOVQ base+40(FP), R12
	MOVQ limit+48(FP), R13
	MOVQ R14, R15
	SHLQ $5, R15            // row bytes

segrow:
	MOVLQSX (DX), R8        // lo = ptr[r] - base
	MOVLQSX 4(DX), R9       // hi = ptr[r+1] - base
	SUBQ    R12, R8
	SUBQ    R12, R9
	CMPQ    R8, R9          // 0 <= lo <= hi <= limit, or stop
	JGT     segdone
	TESTQ   R8, R8
	JLT     segdone
	CMPQ    R9, R13
	JGT     segdone
	MOVQ    R9, R10
	SUBQ    R8, R10         // edges in the segment
	IMULQ   R15, R8
	LEAQ    (SI)(R8*1), R8  // first data row
	MOVQ    R14, BX         // column vectors left
	MOVQ    DI, R11

segcol:
	VXORPS Y0, Y0, Y0
	MOVQ   R8, AX
	MOVQ   R10, R9
	TESTQ  R9, R9
	JZ     segstore

segedge:
	VADDPS (AX), Y0, Y0
	ADDQ   R15, AX
	DECQ   R9
	JNZ    segedge

segstore:
	VMOVUPS Y0, (R11)
	ADDQ    $32, R11
	ADDQ    $32, R8
	DECQ    BX
	JNZ     segcol
	ADDQ    R15, DI
	ADDQ    $4, DX
	DECQ    CX
	JNZ     segrow

segdone:
	MOVQ rows+32(FP), AX
	SUBQ CX, AX
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET
