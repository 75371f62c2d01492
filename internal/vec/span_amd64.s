#include "textflag.h"

// Row-span kernels: reduce a destination row's in-edge list into 8, 16 or
// 32 output columns held in YMM accumulators per pass, in ascending in-edge
// order, lane = output column. Every edge's row index is range-checked
// before it is used (unsigned compare, so a negative id fails too); a failed
// check stops the kernel with nothing further read, and the caller's Go form,
// run over that row, raises the panic from its own slice check. Strides are
// in bytes.

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

// func sumSpans(out *float32, nvec int, data *float32, stride int, rows int, idx *int32, limit int, ptr *int32, nrows int, base int, w *float32, widx *int32, wrows int, mean bool) int
//
// The gathered sum (w nil) and the sum scaled by w[widx[i]], the product
// rounded before the add, inside segmentSum's row loop: out row r reduces the
// in-edges idx[lo:hi] (and widx[lo:hi]), lo = ptr[r]-base and
// hi = ptr[r+1]-base, for r = 0, 1, ..., nrows-1; out rows are nvec vectors
// wide and follow one another (SumRows is a one-row call). Each row takes its
// column passes (4, 2, then 1 vectors) before the next row starts, so its
// sources are still in L1 for the second pass. An empty row is zeros; with
// mean, a non-empty row is multiplied by 1/float32(n), both rounded, as the
// Go loop does. A segment that does not satisfy 0 <= lo <= hi <= limit, or an
// index outside its operand, stops the kernel before anything is read through
// it and before the row is written; the return value is how many rows were
// finished.
TEXT ·sumSpans(SB), NOSPLIT, $24-120
	MOVQ out+0(FP), DI
	MOVQ stride+24(FP), R8
	MOVQ rows+32(FP), R9
	MOVQ w+80(FP), R11
	MOVQ wrows+96(FP), R13
	MOVQ ptr+56(FP), R14
	MOVQ nrows+64(FP), R10
	LEAQ (R14)(R10*4), R10  // the last row's ptr slot, one past

row:
	CMPQ    R14, R10
	JEQ     done
	MOVLQSX (R14), AX       // lo = ptr[r] - base
	MOVLQSX 4(R14), CX      // hi = ptr[r+1] - base
	SUBQ    base+72(FP), AX
	SUBQ    base+72(FP), CX
	CMPQ    AX, CX          // 0 <= lo <= hi <= limit, or stop
	JGT     bad
	TESTQ   AX, AX
	JLT     bad
	CMPQ    CX, limit+48(FP)
	JGT     bad
	SUBQ    AX, CX          // in-edges of the row
	JZ      empty
	MOVQ    idx+40(FP), DX  // the row's first index slots
	LEAQ    (DX)(AX*4), DX
	MOVQ    widx+88(FP), R12
	LEAQ    (R12)(AX*4), R12
	MOVQ    CX, n-8(SP)     // kept for the row's later passes
	MOVQ    DX, rowidx-16(SP)
	MOVQ    R12, rowwidx-24(SP)
	MOVQ    nvec+8(FP), R15 // vectors of the row left
	MOVQ    data+16(FP), SI
	CMPB    mean+104(FP), $0
	JEQ     first
	VCVTSI2SSQ   CX, X9, X9 // Y9 = 1/float32(n) in every lane
	MOVL         $0x3f800000, BX
	VMOVD        BX, X10
	VDIVSS       X9, X10, X10
	VBROADCASTSS X10, Y9
	JMP          first

pass:
	MOVQ n-8(SP), CX
	MOVQ rowidx-16(SP), DX
	MOVQ rowwidx-24(SP), R12

first:
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	TESTQ   R11, R11
	JZ      plain
	CMPQ    R15, $4
	JAE     mul4
	CMPQ    R15, $2
	JAE     mul2

mul1:
	ROW
	WEIGHT
	VMULPS (SI)(AX*1), Y4, Y5
	VADDPS Y5, Y0, Y0
	DECQ   CX
	JNZ    mul1
	JMP    end1

mul2:
	ROW
	WEIGHT
	VMULPS (SI)(AX*1), Y4, Y5
	VADDPS Y5, Y0, Y0
	VMULPS 32(SI)(AX*1), Y4, Y6
	VADDPS Y6, Y1, Y1
	DECQ   CX
	JNZ    mul2
	JMP    end2

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
	JMP    end4

plain:
	CMPQ R15, $4
	JAE  sum4
	CMPQ R15, $2
	JAE  sum2

sum1:
	ROW
	VADDPS (SI)(AX*1), Y0, Y0
	DECQ   CX
	JNZ    sum1
	JMP    end1

sum2:
	ROW
	VADDPS (SI)(AX*1), Y0, Y0
	VADDPS 32(SI)(AX*1), Y1, Y1
	DECQ   CX
	JNZ    sum2
	JMP    end2

sum4:
	ROW
	VADDPS (SI)(AX*1), Y0, Y0
	VADDPS 32(SI)(AX*1), Y1, Y1
	VADDPS 64(SI)(AX*1), Y2, Y2
	VADDPS 96(SI)(AX*1), Y3, Y3
	DECQ   CX
	JNZ    sum4

end4:
	CMPB   mean+104(FP), $0
	JEQ    store4
	VMULPS Y9, Y0, Y0
	VMULPS Y9, Y1, Y1
	VMULPS Y9, Y2, Y2
	VMULPS Y9, Y3, Y3

store4:
	STORE4
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $4, R15
	JNZ  pass
	JMP  next

end2:
	CMPB   mean+104(FP), $0
	JEQ    store2
	VMULPS Y9, Y0, Y0
	VMULPS Y9, Y1, Y1

store2:
	STORE2
	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $2, R15
	JNZ  pass
	JMP  next

end1:
	CMPB   mean+104(FP), $0
	JEQ    store1
	VMULPS Y9, Y0, Y0

store1:
	STORE1
	ADDQ $32, DI
	ADDQ $32, SI
	DECQ R15
	JNZ  pass

next:
	ADDQ $4, R14
	JMP  row

empty:
	VXORPS Y0, Y0, Y0
	MOVQ   nvec+8(FP), R15

zero:
	STORE1
	ADDQ $32, DI
	DECQ R15
	JNZ  zero
	ADDQ $4, R14
	JMP  row

bad:
done:
	MOVQ R14, AX            // rows finished: ptr slots passed
	SUBQ ptr+56(FP), AX
	SHRQ $2, AX
	MOVQ AX, ret+112(FP)
	VZEROUPPER
	RET
