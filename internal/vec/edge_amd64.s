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
