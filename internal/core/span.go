package core

import (
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/vec"
)

// Row-span kernels: the host lowering of a graph operator (DESIGN.md §5).
//
// A reducing operator lowers to one span function that reduces a destination
// row's whole in-edge list in a single call: the operand base, stride and
// index array (the row's source ids, its edge ids, or the fixed destination
// row) are picked once per row, not once per edge, and the accumulation runs
// in ascending in-edge order whichever form executes it, so every form
// produces the same bits. An edge-output operator lowers to an edgeWriter
// that indexes its operands directly over an edge chunk.
//
// The flat and the sharded kernels both call these, so the host has one
// inner loop per operator shape.
//
// On a CPU with AVX2 each blocked kernel first hands the row to its vector
// form in internal/vec — lane = output column, 32, 16 or 8 columns per pass
// over the in-edge list, the same ascending order and roundings per lane, so
// the same bits — and its Go loop resumes at the column the vector form
// stopped at: the sub-8 tail, everything on any other CPU, and the whole row
// again when the vector form met an index outside the operand, so that the
// bounds panic is Go's own (vecDone).
//
// The gathered sums (spanSumCopy, spanSumMulScalar) also have a multi-row
// vector form, which reduceSpans tries before any of that: one call reduces
// the whole row range [lo, hi) over InPtr[lo:hi+1], each row with the same
// passes and bits as its per-row call, and returns the row it stopped at —
// the range's end, or a row with an index outside its operand or a segment
// outside the index array — where the per-row loop resumes. Every reducing
// kernel's full pass, shard runs and row runs come through it.

// spanBlock is how many output columns a blocked span kernel keeps in scalar
// register accumulators per pass over the in-edge list — the trick
// tensor.GemmPackedRowsInto uses: eight float32 accumulators leave the other
// eight SSE registers for the loads, and the output row is written once per
// block where the in-place form (acc[j] += ...) reads and writes it once per
// edge. The blocked form re-walks the in-edge list feat/8 times, which is
// cheap while a row's sources stay in cache. It is also the width of one
// vector register, so the vector form takes one to four blocks per pass.
// BenchmarkSpanKernel, one worker, 2-CPU bench host, ms per kernel, the
// faster of two runs (`make bench-kernels`; EXPERIMENTS.md "Row-span
// kernels", "Vector kernels" and "Rows per call for the gathered span
// kernels" have every row):
//
//	                        per-edge  in-place  blocked  vector  rows-per-call
//	AR u_mul_e.sum feat   8     33.2      36.1     22.3    12.4            4.8
//	AR u_mul_e.sum feat  16     52.4      45.3     33.9    13.4            9.7
//	AR u_mul_e.sum feat  32     77.0      84.7     61.0    19.9           13.2
//	AR copy_u.sum  feat 128    362.2     392.7    177.1    46.0           37.0
//	PU copy_u.sum  feat 256     31.0      33.0     17.0     6.9            5.5
//	PR copy_e.sum  feat   8      2.8       3.0      1.5     1.9            0.7
//	PR u_mul_e.sum feat  64     12.4      13.1     11.7     3.9            2.3
//
// The Go blocked loop beats the in-place one at every width here (by 11 % on
// PR's 4-edge rows at 64 columns, by 25-55 % elsewhere), so the in-place form
// serves only the sub-block tail and the operator shapes without a blocked
// kernel. The vector form under it, at one call per row, is 1.8-3.9x faster
// again wherever a row has more than a handful of in-edges; on PR's 4-edge,
// 8-column rows the call costs more than the lanes save. One call for the
// whole row range (reduceSpans) is 1.2-1.7x faster again at 16 columns and up
// and 2.6x at 8, where the per-row Go call chain was most of a row's cost.
const spanBlock = 8

// spanOperand is one input tensor of a lowered operator: its storage, its
// width (0 = absent, 1 = a scalar broadcast over the feature dimension,
// otherwise the feature width), its row count (what a vector kernel checks
// every edge's index against) and the graph entity its rows belong to.
type spanOperand struct {
	data       []float32
	cols, rows int
	kind       tensor.Kind
}

func newSpanOperand(t tensor.Typed) spanOperand {
	if t.Kind == tensor.Null || t.T == nil {
		return spanOperand{}
	}
	return spanOperand{data: t.T.Data, cols: t.T.Cols, rows: t.T.Rows, kind: t.Kind}
}

// at resolves the operand for destination row v: element j of the operand
// row of in-edge i is data[base+int(idx[i])*stride+j]. A Dst_V operand reads
// row v for every edge, which stride 0 expresses without a branch per edge;
// an absent operand resolves to the empty row at offset 0.
func (o *spanOperand) at(srcs, eids []int32, v int32) (idx []int32, base, stride int) {
	switch o.kind {
	case tensor.SrcV:
		return srcs, 0, o.cols
	case tensor.EdgeK:
		return eids, 0, o.cols
	default:
		return eids, int(v) * o.cols, 0
	}
}

// window is the operand's column range matching output columns [j0, feat):
// a full-width operand follows the output, a scalar or absent one does not.
func (o *spanOperand) window(j0, feat int) (lo, hi int) {
	if o.cols == feat {
		return j0, feat
	}
	return 0, o.cols
}

// spanFn reduces the in-edge list (srcs, eids) of destination row v into
// acc, overwriting it. The list is non-empty; the zero-degree convention and
// the mean division belong to rowReducer.reduce.
type spanFn func(r *rowReducer, acc []float32, srcs, eids []int32, v int32)

// rowReducer is a reducing operator lowered for one operand binding.
type rowReducer struct {
	a, b spanOperand
	// full and scalar are the operands the blocked kernels read: the copied
	// or full-width operand, and the width-1 multiplier of spanSumMulScalar.
	full, scalar spanOperand
	// row folds one edge into an accumulator row (kernels_host.go): the
	// in-place form of every operator, and the tail of the blocked ones.
	row  fusedRow
	span spanFn
	// spans marks the gathered sums (spanSumCopy, spanSumMulScalar), which
	// have a multi-row vector form: sumSpans reduces a whole run of rows per
	// call.
	spans    bool
	identity float32
	mean     bool
	// plainSum marks the sum of a copied full-width operand (spanSumCopy
	// without the mean division): over a slab, whose rows are the in-edge
	// positions themselves, reduceSlab sums whole runs of rows per call
	// without a gather.
	plainSum bool
}

// lowerRowReducer resolves the span kernel of a reducing operator writing
// feat-wide rows. An op combination with no host kernel is a lowering error.
func lowerRowReducer(op ops.OpInfo, o Operands, feat int) (rowReducer, error) {
	row, err := lowerRowKernel(op.EdgeOp, op.GatherOp)
	if err != nil {
		return rowReducer{}, err
	}
	r := rowReducer{
		a: newSpanOperand(o.A), b: newSpanOperand(o.B),
		row: row, span: spanInPlace,
		identity: op.GatherOp.Identity(),
		mean:     op.GatherOp == ops.GatherMean,
	}
	if feat < spanBlock {
		return r, nil
	}
	sum := op.GatherOp == ops.GatherSum || op.GatherOp == ops.GatherMean
	switch op.EdgeOp {
	case ops.CopyLHS, ops.CopyRHS, ops.EdgeNull:
		r.full = r.b
		if op.EdgeOp == ops.CopyLHS {
			r.full = r.a
		}
		if r.full.cols != feat {
			return r, nil
		}
		switch {
		case sum:
			r.span, r.spans = spanSumCopy, true
			r.plainSum = !r.mean
		case op.GatherOp == ops.GatherMax:
			r.span = spanMaxCopy
		case op.GatherOp == ops.GatherMin:
			r.span = spanMinCopy
		}
	case ops.EdgeMul:
		// a*w and w*a round identically, so either operand may be the scalar.
		r.full, r.scalar = r.a, r.b
		if r.a.cols == 1 {
			r.full, r.scalar = r.b, r.a
		}
		if sum && r.full.cols == feat && r.scalar.cols == 1 {
			r.span, r.spans = spanSumMulScalar, true
		}
	}
	return r, nil
}

// reduce computes output row v from its in-edge list: the reduction, the
// mean division, and the zero-degree convention (DGL: an empty reduction is
// 0, not the identity).
func (r *rowReducer) reduce(row []float32, srcs, eids []int32, v int32) {
	if len(eids) == 0 {
		for j := range row {
			row[j] = 0
		}
		return
	}
	r.span(r, row, srcs, eids, v)
	if r.mean {
		inv := 1 / float32(len(eids))
		for j := range row {
			row[j] *= inv
		}
	}
}

// reduceRows is the chunk body of the row walk: output rows [lo, hi) of out
// from graph g's incoming CSR, one owner per row.
func (r *rowReducer) reduceRows(out *tensor.Dense, g *graph.Graph, lo, hi int32) {
	r.reduceSpans(out, g.InPtr(), lo, hi, 0, g.InSrcs(), g.InEdgeIDs())
}

// reduceSlab is reduceRows inside a row-resident region (region_rows.go): the
// reducer's Edge operand is a slab whose row i holds in-edge position base+i,
// and pos is 0, 1, 2, ..., what stands in for edge ids there. A
// destination's in-edges are consecutive slab rows, so the plain sum has
// nothing to gather: vec.SegmentSum adds them without reading an index,
// which on rows of a few edges beats the gathered kernel by a fifth.
func (r *rowReducer) reduceSlab(out *tensor.Dense, g *graph.Graph, lo, hi int32, base int, pos []int32) {
	inPtr := g.InPtr()
	if r.plainSum {
		lo += int32(vec.SegmentSum(out.Data[int(lo)*out.Cols:], out.Cols, r.full.data, inPtr[lo:hi+1], base))
	}
	r.reduceSpans(out, inPtr, lo, hi, base, g.InSrcs()[base:], pos)
}

// reduceSpans computes output rows [lo, hi) of out, row v from the in-edge
// lists srcs[inPtr[v]-base : inPtr[v+1]-base] and eids likewise. The
// gathered sums first hand the whole row range to their multi-row vector
// kernel — one call, not a Go call chain per row, which is most of the cost
// on rows of a few edges — and the per-row loop resumes at the row it
// stopped at: every row on a CPU without the kernels or at a width that is
// not a multiple of eight, and a row with an index outside its operand, so
// that the bounds panic is Go's own.
func (r *rowReducer) reduceSpans(out *tensor.Dense, inPtr []int32, lo, hi int32, base int, srcs, eids []int32) {
	if r.spans {
		lo += int32(r.sumSpans(out.Data[int(lo)*out.Cols:], inPtr[lo:hi+1], base, srcs, eids))
	}
	for v := lo; v < hi; v++ {
		a, b := int(inPtr[v])-base, int(inPtr[v+1])-base
		r.reduce(out.Row(int(v)), srcs[a:b], eids[a:b], v)
	}
}

// spanInPlace is the in-place span kernel of every operator and width.
func spanInPlace(r *rowReducer, acc []float32, srcs, eids []int32, v int32) {
	r.inPlace(acc, srcs, eids, v, 0)
}

// inPlace reduces output columns [j0, len(acc)) with the per-edge row
// kernel: acc = gather(acc, edge_op(a, b)) edge after edge, operand rows
// indexed directly.
func (r *rowReducer) inPlace(acc []float32, srcs, eids []int32, v int32, j0 int) {
	feat := len(acc)
	acc = acc[j0:]
	for j := range acc {
		acc[j] = r.identity
	}
	ia, baseA, strideA := r.a.at(srcs, eids, v)
	ib, baseB, strideB := r.b.at(srcs, eids, v)
	a0, a1 := r.a.window(j0, feat)
	b0, b1 := r.b.window(j0, feat)
	baseA, baseB = baseA+a0, baseB+b0
	na, nb := a1-a0, b1-b0
	adata, bdata, row := r.a.data, r.b.data, r.row
	ib = ib[:len(ia)]
	for i, x := range ia {
		oa := baseA + int(x)*strideA
		ob := baseB + int(ib[i])*strideB
		row(acc, adata[oa:oa+na], bdata[ob:ob+nb])
	}
}

// vecDone turns a vector span kernel's report into the column the Go loop
// resumes at: the columns the kernel finished — none on a CPU without the
// kernels or for an operand it does not take (a Dst_V row has stride 0) — or,
// when it met an edge index outside the operand (-1), column 0, so that the
// Go loop walks the same edge and its slice check raises the panic the
// kernel's recover turns into a KernelError.
func vecDone(cols int) int { return max(cols, 0) }

// sumSpans is the multi-row form of spanSumCopy (no scalar operand) and
// spanSumMulScalar: output rows r = 0, 1, ... of out, one per slot of ptr but
// the last, from the in-edge lists srcs[ptr[r]-base : ptr[r+1]-base] (eids
// likewise) in one vector call. It returns how many rows it finished: none
// for a Dst_V operand (stride 0), whose one row per destination the kernel
// does not take.
func (r *rowReducer) sumSpans(out []float32, ptr []int32, base int, srcs, eids []int32) int {
	idx, _, stride := r.full.at(srcs, eids, 0)
	if stride == 0 {
		return 0
	}
	if r.scalar.cols == 0 {
		return vec.SumSpans(out, r.full.cols, r.full.data, stride, r.full.rows, idx, ptr, base, r.mean)
	}
	widx, _, wstride := r.scalar.at(srcs, eids, 0)
	if wstride != 1 {
		return 0
	}
	return vec.SumSpansScaled(out, r.full.cols, r.full.data, stride, r.full.rows, idx, ptr, base, r.scalar.data, widx, r.mean)
}

// spanSumCopy is sum/mean of a copied full-width operand (copy_u.sum,
// copy_e.sum): eight columns at a time in registers.
func spanSumCopy(r *rowReducer, acc []float32, srcs, eids []int32, v int32) {
	idx, base, stride := r.full.at(srcs, eids, v)
	data := r.full.data
	j := vecDone(vec.SumRows(acc, data, stride, r.full.rows, idx))
	for ; j+spanBlock <= len(acc); j += spanBlock {
		var c0, c1, c2, c3, c4, c5, c6, c7 float32
		for _, x := range idx {
			o := base + int(x)*stride + j
			s := data[o : o+spanBlock : o+spanBlock]
			c0 += s[0]
			c1 += s[1]
			c2 += s[2]
			c3 += s[3]
			c4 += s[4]
			c5 += s[5]
			c6 += s[6]
			c7 += s[7]
		}
		d := acc[j : j+spanBlock : j+spanBlock]
		d[0], d[1], d[2], d[3] = c0, c1, c2, c3
		d[4], d[5], d[6], d[7] = c4, c5, c6, c7
	}
	if j < len(acc) {
		r.inPlace(acc, srcs, eids, v, j)
	}
}

// spanSumMulScalar is sum/mean of a full-width operand scaled by a width-1
// one (u_mul_e.sum with scalar edge weights: GCN, GAT).
func spanSumMulScalar(r *rowReducer, acc []float32, srcs, eids []int32, v int32) {
	idx, base, stride := r.full.at(srcs, eids, v)
	widx, wbase, wstride := r.scalar.at(srcs, eids, v)
	data, wdata := r.full.data, r.scalar.data
	widx = widx[:len(idx)]
	j := 0
	if wstride == 1 {
		j = vecDone(vec.SumRowsScaled(acc, data, stride, r.full.rows, idx, wdata, widx))
	}
	for ; j+spanBlock <= len(acc); j += spanBlock {
		var c0, c1, c2, c3, c4, c5, c6, c7 float32
		for i, x := range idx {
			w := wdata[wbase+int(widx[i])*wstride]
			o := base + int(x)*stride + j
			s := data[o : o+spanBlock : o+spanBlock]
			// The conversions keep the product rounded before the add where
			// the compiler would otherwise fuse the two (sumMul does the same).
			c0 += float32(s[0] * w)
			c1 += float32(s[1] * w)
			c2 += float32(s[2] * w)
			c3 += float32(s[3] * w)
			c4 += float32(s[4] * w)
			c5 += float32(s[5] * w)
			c6 += float32(s[6] * w)
			c7 += float32(s[7] * w)
		}
		d := acc[j : j+spanBlock : j+spanBlock]
		d[0], d[1], d[2], d[3] = c0, c1, c2, c3
		d[4], d[5], d[6], d[7] = c4, c5, c6, c7
	}
	if j < len(acc) {
		r.inPlace(acc, srcs, eids, v, j)
	}
}

// spanMaxCopy is max of a copied full-width operand (copy_u.max).
func spanMaxCopy(r *rowReducer, acc []float32, srcs, eids []int32, v int32) {
	idx, base, stride := r.full.at(srcs, eids, v)
	data := r.full.data
	j := vecDone(vec.MaxRows(acc, data, stride, r.full.rows, idx, r.identity))
	for ; j+spanBlock <= len(acc); j += spanBlock {
		c0, c1, c2, c3 := r.identity, r.identity, r.identity, r.identity
		c4, c5, c6, c7 := r.identity, r.identity, r.identity, r.identity
		for _, x := range idx {
			o := base + int(x)*stride + j
			s := data[o : o+spanBlock : o+spanBlock]
			if s[0] > c0 {
				c0 = s[0]
			}
			if s[1] > c1 {
				c1 = s[1]
			}
			if s[2] > c2 {
				c2 = s[2]
			}
			if s[3] > c3 {
				c3 = s[3]
			}
			if s[4] > c4 {
				c4 = s[4]
			}
			if s[5] > c5 {
				c5 = s[5]
			}
			if s[6] > c6 {
				c6 = s[6]
			}
			if s[7] > c7 {
				c7 = s[7]
			}
		}
		d := acc[j : j+spanBlock : j+spanBlock]
		d[0], d[1], d[2], d[3] = c0, c1, c2, c3
		d[4], d[5], d[6], d[7] = c4, c5, c6, c7
	}
	if j < len(acc) {
		r.inPlace(acc, srcs, eids, v, j)
	}
}

// spanMinCopy is min of a copied full-width operand (copy_u.min).
func spanMinCopy(r *rowReducer, acc []float32, srcs, eids []int32, v int32) {
	idx, base, stride := r.full.at(srcs, eids, v)
	data := r.full.data
	j := vecDone(vec.MinRows(acc, data, stride, r.full.rows, idx, r.identity))
	for ; j+spanBlock <= len(acc); j += spanBlock {
		c0, c1, c2, c3 := r.identity, r.identity, r.identity, r.identity
		c4, c5, c6, c7 := r.identity, r.identity, r.identity, r.identity
		for _, x := range idx {
			o := base + int(x)*stride + j
			s := data[o : o+spanBlock : o+spanBlock]
			if s[0] < c0 {
				c0 = s[0]
			}
			if s[1] < c1 {
				c1 = s[1]
			}
			if s[2] < c2 {
				c2 = s[2]
			}
			if s[3] < c3 {
				c3 = s[3]
			}
			if s[4] < c4 {
				c4 = s[4]
			}
			if s[5] < c5 {
				c5 = s[5]
			}
			if s[6] < c6 {
				c6 = s[6]
			}
			if s[7] < c7 {
				c7 = s[7]
			}
		}
		d := acc[j : j+spanBlock : j+spanBlock]
		d[0], d[1], d[2], d[3] = c0, c1, c2, c3
		d[4], d[5], d[6], d[7] = c4, c5, c6, c7
	}
	if j < len(acc) {
		r.inPlace(acc, srcs, eids, v, j)
	}
}

// edgeWriter is an edge-output (message-creation) operator lowered for one
// operand binding: out row e = edge_op(a, b), operand rows indexed directly
// through per-edge index arrays.
type edgeWriter struct {
	a, b spanOperand
	// idxA and idxB map an output row to the operand's row: the edge's source
	// or destination for a vertex operand, nil for an operand whose rows are
	// the output's own (an edge tensor under edge-id order).
	idxA, idxB []int32
	eop        ops.EdgeOp
	// row stores one edge's value for the shapes writeEdges has no loop of
	// its own for (copies and broadcasts).
	row fusedRow
}

func lowerEdgeWriter(op ops.OpInfo, g *graph.Graph, o Operands) (edgeWriter, error) {
	a, b := newSpanOperand(o.A), newSpanOperand(o.B)
	return newEdgeWriter(op, a, b, edgeIndex(a.kind, g), edgeIndex(b.kind, g))
}

// newEdgeWriter binds the operator to operands whose row index arrays the
// caller chose: the edge-endpoint arrays under edge-id order
// (lowerEdgeWriter), the incoming CSR's columns under in-edge order (a
// row-resident region's stages, region_rows.go).
func newEdgeWriter(op ops.OpInfo, a, b spanOperand, idxA, idxB []int32) (edgeWriter, error) {
	row, err := lowerRowKernel(op.EdgeOp, op.GatherOp)
	if err != nil {
		return edgeWriter{}, err
	}
	return edgeWriter{a: a, b: b, idxA: idxA, idxB: idxB, eop: op.EdgeOp, row: row}, nil
}

// edgeIndex is the per-edge row index array of an operand kind.
func edgeIndex(kind tensor.Kind, g *graph.Graph) []int32 {
	switch kind {
	case tensor.SrcV:
		return g.EdgeSrcs()
	case tensor.DstV:
		return g.EdgeDsts()
	}
	return nil
}

// vecEdgeOps maps the binary edge operators onto the vector kernel's.
var vecEdgeOps = [...]vec.EdgeOp{
	ops.EdgeAdd: vec.EdgeAdd, ops.EdgeSub: vec.EdgeSub, ops.EdgeMul: vec.EdgeMul, ops.EdgeDiv: vec.EdgeDiv,
}

// vecOperand describes an operand's rows [lo, hi) to the vector kernel; a
// row without an index array is the output's own row, base rows into data.
func (o *spanOperand) vecOperand(idx []int32, base, lo, hi int) vec.EdgeOperand {
	if idx == nil {
		return vec.EdgeOperand{Data: o.data[min((lo-base)*o.cols, len(o.data)):]}
	}
	return vec.EdgeOperand{Data: o.data, Idx: idx[lo:hi], Rows: o.rows}
}

// writeEdges computes output rows [lo, hi) into out, whose first row is
// output row base (0 for an edge tensor; a region's slab holds the rows of one
// chunk). The full-width binary shapes go through the vector kernel first,
// lane = output column, and the Go loop resumes at the row it stopped at:
// every row without the kernels or at a width that is not a multiple of
// eight, and the row whose operand index is out of range, so that the bounds
// panic is Go's own.
func (w *edgeWriter) writeEdges(out []float32, feat, base, lo, hi int) {
	adata, bdata, acols, bcols := w.a.data, w.b.data, w.a.cols, w.b.cols
	idxA, idxB, eop, row := w.idxA, w.idxB, w.eop, w.row
	direct := eop.IsBinary() && acols == feat && bcols == feat
	if direct {
		lo += vec.EdgeBinary(vecEdgeOps[eop], out[(lo-base)*feat:], feat, hi-lo,
			w.a.vecOperand(idxA, base, lo, hi), w.b.vecOperand(idxB, base, lo, hi))
	}
	for e := lo; e < hi; e++ {
		ra, rb := e-base, e-base
		if idxA != nil {
			ra = int(idxA[e])
		}
		if idxB != nil {
			rb = int(idxB[e])
		}
		o := out[(e-base)*feat : (e-base)*feat+feat]
		a := adata[ra*acols : ra*acols+acols]
		b := bdata[rb*bcols : rb*bcols+bcols]
		if !direct {
			row(o, a, b)
			continue
		}
		a, b = a[:len(o)], b[:len(o)]
		switch eop {
		case ops.EdgeAdd:
			for j := range o {
				o[j] = a[j] + b[j]
			}
		case ops.EdgeSub:
			for j := range o {
				o[j] = a[j] - b[j]
			}
		case ops.EdgeMul:
			for j := range o {
				o[j] = a[j] * b[j]
			}
		default: // ops.EdgeDiv, the last binary edge op
			for j := range o {
				o[j] = a[j] / b[j]
			}
		}
	}
}
