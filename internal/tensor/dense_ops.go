package tensor

import (
	"fmt"
	"math"

	"repro/internal/vec"
)

// This file implements the dense neural-network operators GNN models need
// around graph operators: linear transforms, activations, normalisation.
// They execute functionally; their simulated GPU cost comes from
// internal/gpu's dense cost model so end-to-end experiments (Fig. 13-15)
// account for the GEMM share of each model.
//
// Shape-mismatch panics in this file are invariant panics, not
// input-reachable errors: operand shapes are fixed by model code and the
// compiled program's buffer planner, never by user-supplied graph or
// feature data, so a mismatch is a programming bug the process should not
// limp past. User-reachable shape problems are caught earlier, as errors,
// by core's operand validation.

// MatMul returns a @ b for a: m×k, b: k×n. It panics on shape mismatch — an
// invariant violation (shapes are programmer-controlled, not data-dependent).
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	matMulAdd(out, a, b)
	return out
}

// matMulAdd accumulates a @ b into out (m×n, not aliasing a or b), ascending
// k with a zero-skip on a[i][k] — the order GemmPackedRowsInto reproduces.
func matMulAdd(out, a, b *Dense) {
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// AddScaledInto computes out = a + s*b element-wise without allocating.
// out may alias a (each element is read before it is written). Shape
// mismatch is an invariant panic (see the file header).
func AddScaledInto(out, a, b *Dense, s float32) {
	if a.Rows != b.Rows || a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != a.Cols {
		panic("tensor: add-scaled shape mismatch")
	}
	o, x, y := out.Data, a.Data, b.Data
	for i := vec.AddScaled(o, x, y, s); i < len(o); i++ {
		o[i] = x[i] + s*y[i]
	}
}

// ConcatInto writes the column-wise concatenation [a | b] into out without
// allocating. out must not alias a or b. Shape mismatch is an invariant
// panic (see the file header).
func ConcatInto(out, a, b *Dense) {
	if a.Rows != b.Rows || out.Rows != a.Rows || out.Cols != a.Cols+b.Cols {
		panic("tensor: concat shape mismatch")
	}
	for r := 0; r < a.Rows; r++ {
		copy(out.Row(r)[:a.Cols], a.Row(r))
		copy(out.Row(r)[a.Cols:], b.Row(r))
	}
}

// RowMeanInto writes each row's mean of t into the n×1 tensor out without
// allocating (sum first, then one multiply by 1/cols — the order GAT's
// head-merge uses, so results match the interpreter bit for bit). out must
// not alias t. Shape mismatch is an invariant panic (see the file header).
func RowMeanInto(out, t *Dense) {
	if out.Rows != t.Rows || out.Cols != 1 {
		panic("tensor: row-mean output must be Rows x 1")
	}
	inv := 1 / float32(t.Cols)
	for r := 0; r < t.Rows; r++ {
		var s float32
		for _, v := range t.Row(r) {
			s += v
		}
		out.Data[r] = s * inv
	}
}

// The activations below are `if v < 0 { ... }` per element, written without
// the branch: behind a GEMM the sign is a coin flip and the branch costs about
// 5 ns an element in mispredictions. negMask is the test on the bits.

// negMask returns all ones when the float32 with bits b is below zero and
// zero otherwise: the negative non-NaN values other than -0 are exactly the
// bit patterns 0x80000001 (the smallest denormal) to 0xFF800000 (-Inf), a
// range test that is one subtraction and the borrow of a second.
func negMask(b uint32) uint32 {
	return uint32((uint64(b-0x80000001) - 0x7F800000) >> 32)
}

// ReLU applies max(0, x) in place: `if v < 0 { v = 0 }`, so a NaN and -0 are
// left as they are. The leading elements go through the vector kernel
// (internal/vec), which yields the same bits.
func ReLU(t *Dense) {
	d := t.Data
	for i := vec.ReLU(d); i < len(d); i++ {
		b := math.Float32bits(d[i])
		d[i] = math.Float32frombits(b &^ negMask(b))
	}
}

// LeakyReLU applies x>=0 ? x : alpha*x in place (GAT's attention activation):
// `if v < 0 { v = alpha * v }`, by the same two routes as ReLU.
func LeakyReLU(t *Dense, alpha float32) {
	d := t.Data
	for i := vec.LeakyReLU(d, alpha); i < len(d); i++ {
		b := math.Float32bits(d[i])
		m := negMask(b)
		d[i] = math.Float32frombits(b&^m | math.Float32bits(alpha*d[i])&m)
	}
}

// Concat returns the column-wise concatenation [a | b]. A row-count
// mismatch is an invariant panic (see the file header).
func Concat(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic("tensor: concat row mismatch")
	}
	out := NewDense(a.Rows, a.Cols+b.Cols)
	for r := 0; r < a.Rows; r++ {
		copy(out.Row(r)[:a.Cols], a.Row(r))
		copy(out.Row(r)[a.Cols:], b.Row(r))
	}
	return out
}

// GEMMFlops returns the floating-point operation count of MatMul(a, b),
// used by the dense cost model.
func GEMMFlops(m, k, n int) int64 { return 2 * int64(m) * int64(k) * int64(n) }
