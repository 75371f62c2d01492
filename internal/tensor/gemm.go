package tensor

import (
	"fmt"

	"repro/internal/vec"
)

// Cache-blocked GEMM with a packed column-panel layout, the dense half of
// the fusion-region work (ROADMAP "Raw speed"). The naive MatMulInto walk
// streams B row by row and keeps the whole N-wide output row as the
// accumulation target; for the wide weight matrices GEMM-dominated models
// use (Sage's hidden width 256, DESIGN.md §2) that output row no longer
// fits in registers, so every partial sum round-trips through memory.
//
// The blocked path repacks B once — weights are compile-time constants, so
// the pack cost is amortised over every subsequent Run — into column panels
// of gemmPanelN columns laid out k-major: panel p holds
//
//	b[0][p*8 .. p*8+7], b[1][p*8 .. p*8+7], ..., b[K-1][...]
//
// contiguously. GemmPackedInto then computes one output row × one panel at
// a time with eight explicit register accumulators and a fully unrolled
// inner body: B is read as a single forward stream (hardware-prefetch
// friendly), and each output element is written exactly once.
//
// Accumulation order is deliberately identical to MatMulInto — ascending k
// with the same zero-skip on a[i][k] — so the two paths produce
// bit-identical results and the compiled program can switch between them
// without perturbing the golden compiled≡interpreted comparisons.
//
// On a CPU with AVX2 the whole 8-column panels are computed by the vector
// micro-kernels of internal/vec (lane = output column, the same rounded
// product and ascending-k add per lane), and the loop below serves the tail
// panel, every other architecture, and — as the oracle — the tests. The
// vector kernels do not skip zeros, which is bit-identical exactly when B is
// all finite (vec.GemmPanels); PackB records that.
//
// Shape-mismatch panics below are invariant panics (see dense_ops.go's file
// header): shapes come from model code and the compile-time packer, never
// from user input.

// gemmPanelN is the packed panel width: eight float32 columns, matching one
// 32-byte half-line per k step and the eight accumulator registers of the
// unrolled kernel.
const gemmPanelN = 8

// PackedB is a weight matrix repacked into k-major column panels for
// GemmPackedInto. The final panel is zero-padded when N is not a multiple
// of the panel width; padded lanes are computed and discarded.
type PackedB struct {
	// K and N are the logical (unpacked) dimensions of B.
	K, N int
	// panels holds ceil(N/gemmPanelN) panels of K*gemmPanelN floats each.
	panels []float32
	// finite records that B holds no NaN or infinity, which is what lets a
	// kernel that multiplies by a zero a[i][k] instead of skipping it produce
	// the same bits.
	finite bool
}

// PackB repacks b (K×N, row-major) into column panels. Packing allocates;
// it is a compile-time operation, never called on a Run path.
func PackB(b *Dense) *PackedB {
	k, n := b.Rows, b.Cols
	numPanels := (n + gemmPanelN - 1) / gemmPanelN
	pb := &PackedB{K: k, N: n, panels: make([]float32, numPanels*k*gemmPanelN), finite: true}
	for _, v := range b.Data {
		if v-v != 0 { // NaN or ±Inf
			pb.finite = false
			break
		}
	}
	for p := 0; p < numPanels; p++ {
		base := p * k * gemmPanelN
		j0 := p * gemmPanelN
		width := n - j0
		if width > gemmPanelN {
			width = gemmPanelN
		}
		for kk := 0; kk < k; kk++ {
			brow := b.Data[kk*n+j0 : kk*n+j0+width]
			dst := pb.panels[base+kk*gemmPanelN : base+kk*gemmPanelN+width]
			copy(dst, brow)
		}
	}
	return pb
}

// GemmPackedInto computes out = a @ B for the packed B, without allocating.
// out must not alias a. Results are bit-identical to
// MatMulInto(out, a, unpackedB): per output element the partial products
// accumulate in the same ascending-k order with the same zero-skip.
func GemmPackedInto(out, a *Dense, pb *PackedB) {
	GemmPackedRowsInto(out, a, pb, 0, a.Rows)
}

// GemmPackedRowsInto is the row-range form of GemmPackedInto: it computes
// output rows [lo, hi) only. Every output row depends on its own input row
// alone, so disjoint ranges may run concurrently, and splitting a product
// into row panels leaves every element's accumulation order — hence every
// bit of the result — unchanged.
func GemmPackedRowsInto(out, a *Dense, pb *PackedB, lo, hi int) {
	gemmPackedRows(out, a, pb, lo, hi, false)
}

// GemmPackedRowsAccInto adds a @ B to output rows [lo, hi): each element's
// accumulator starts from what out holds and carries on in ascending k. Run
// after GemmPackedRowsInto(out, x, W[:Kx]) with a = y and B = W[Kx:] it
// leaves, per element, the add chain of [x | y] @ W — the same bits, without
// the concatenation (the rows of a row-major W are contiguous, so each half
// packs from a RowRange view).
func GemmPackedRowsAccInto(out, a *Dense, pb *PackedB, lo, hi int) {
	gemmPackedRows(out, a, pb, lo, hi, true)
}

func gemmPackedRows(out, a *Dense, pb *PackedB, lo, hi int, acc bool) {
	if a.Cols != pb.K {
		// invariant: shapes come from model code and the compile-time packer,
		// never from user input; a mismatch is a compiler bug.
		panic(fmt.Sprintf("tensor: packed matmul shape mismatch %dx%d @ %dx%d", a.Rows, a.Cols, pb.K, pb.N))
	}
	if out.Rows != a.Rows || out.Cols != pb.N {
		// invariant: the buffer planner sizes out from the value table; a
		// mismatch here means verification failed open.
		panic(fmt.Sprintf("tensor: packed matmul output %dx%d, want %dx%d", out.Rows, out.Cols, a.Rows, pb.N))
	}
	if lo < 0 || hi > a.Rows || lo > hi {
		// invariant: row ranges are carved from the output's own row count
		// by the step splitter.
		panic(fmt.Sprintf("tensor: packed matmul row range [%d,%d) outside %d rows", lo, hi, a.Rows))
	}
	first := 0
	if pb.finite {
		if acc {
			first = vec.GemmPanelsAcc(out.Data, a.Data, pb.panels, lo, hi, pb.K, pb.N)
		} else {
			first = vec.GemmPanels(out.Data, a.Data, pb.panels, lo, hi, pb.K, pb.N)
		}
	}
	gemmPackedRowsGo(out, a, pb, lo, hi, first, acc)
}

// gemmPackedRowsGo is the portable kernel, and the oracle the vector kernels
// are tested against: output rows [lo, hi), panels from first on, the
// accumulators starting from out's elements when acc is set and from +0
// otherwise.
func gemmPackedRowsGo(out, a *Dense, pb *PackedB, lo, hi, first int, acc bool) {
	k, n := pb.K, pb.N
	numPanels := (n + gemmPanelN - 1) / gemmPanelN
	if first == numPanels {
		return
	}
	for i := lo; i < hi; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for p := first; p < numPanels; p++ {
			panel := pb.panels[p*k*gemmPanelN : (p+1)*k*gemmPanelN]
			j0 := p * gemmPanelN
			width := min(n-j0, gemmPanelN)
			// Padded lanes of the tail panel hold zeros: their accumulators
			// are computed and discarded.
			var accs [gemmPanelN]float32
			if acc {
				copy(accs[:width], orow[j0:j0+width])
			}
			acc0, acc1, acc2, acc3 := accs[0], accs[1], accs[2], accs[3]
			acc4, acc5, acc6, acc7 := accs[4], accs[5], accs[6], accs[7]
			for kk, av := range arow {
				if av == 0 {
					continue
				}
				row := panel[kk*gemmPanelN : kk*gemmPanelN+gemmPanelN : kk*gemmPanelN+gemmPanelN]
				acc0 += av * row[0]
				acc1 += av * row[1]
				acc2 += av * row[2]
				acc3 += av * row[3]
				acc4 += av * row[4]
				acc5 += av * row[5]
				acc6 += av * row[6]
				acc7 += av * row[7]
			}
			accs = [gemmPanelN]float32{acc0, acc1, acc2, acc3, acc4, acc5, acc6, acc7}
			copy(orow[j0:j0+width], accs[:width])
		}
	}
}

// PackedFloats reports the packed storage size in float32 elements (for
// compile stats and tests).
func (pb *PackedB) PackedFloats() int { return len(pb.panels) }
