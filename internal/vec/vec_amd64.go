package vec

import (
	"math/bits"
	"unsafe"
)

// cpuid and xgetbv are the two instructions the dispatch decision reads.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detect reports AVX2 with OS-saved YMM state: CPUID.1:ECX says the CPU has
// AVX and the OS uses XSAVE, XCR0 says the OS saves both the XMM and the YMM
// halves across context switches, CPUID.7:EBX says AVX2.
func detect() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return b&avx2 != 0
}

//go:noescape
func gemmRowPanels4(out, a, panel *float32, rows, k, ostride, pstride, acc int)

//go:noescape
func gemmRows4Panel(out, a, panel *float32, groups, k, ostride, acc int)

//go:noescape
func gemmRow1Panel(out, a, panel *float32, rows, k, ostride, acc int)

//go:noescape
func relu(x *float32, n int)

//go:noescape
func leakyRelu(x *float32, n int, alpha float32)

//go:noescape
func addScaled(out, a, b *float32, n int, s float32)

//go:noescape
func expVec(x *float32, n int, t *ExpTable)

//go:noescape
func edgeAdd(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int

//go:noescape
func edgeSub(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int

//go:noescape
func edgeMul(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int

//go:noescape
func edgeDiv(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int

//go:noescape
func segmentSum(out *float32, nvec int, data *float32, ptr *int32, rows, base, limit int) int

// edgeKernels is indexed by EdgeOp.
var edgeKernels = [...]func(out *float32, nvec, n int, a *float32, idxA *int32, rowsA int, b *float32, idxB *int32, rowsB int) int{
	EdgeAdd: edgeAdd, EdgeSub: edgeSub, EdgeMul: edgeMul, EdgeDiv: edgeDiv,
}

//go:noescape
func sumSpans(out *float32, nvec int, data *float32, stride int, rows int, idx *int32, limit int, ptr *int32, nrows int, base int, w *float32, widx *int32, wrows int, mean bool) int

//go:noescape
func spanMax(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, identity float32) bool

//go:noescape
func spanMin(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, identity float32) bool

// Widths of one pass of a span kernel, in 8-column vectors: 32 columns give
// the in-edge loop four independent accumulator chains, 16 and 8 serve what
// is left of a row.
var spanPasses = [...]int{4, 2, 1}

// gatherOK reports whether every index in [0, rows) addresses width columns
// inside data at the given row stride — the precondition under which a span
// kernel's per-edge index check is all the bounds checking it needs.
func gatherOK(width, dataLen, stride, rows int) bool {
	return rows > 0 && rows <= 1<<31-1 && stride >= width && stride < 1<<31 && rows*stride <= dataLen
}

// gemmTileFloats bounds the A rows of one tile, in floats: 16 KB, half an L1.
const gemmTileFloats = 4096

// GemmPanels computes, for rows [lo, hi) of the row-major a (k columns) and
// out (n columns), the leading whole 8-column panels of out = a @ B, where
// panels holds B packed k-major in 8-column panels (tensor.PackB), and
// returns how many panels it finished for every row of the range; the
// caller computes panels from there on. Each element accumulates from +0 in
// ascending k with a rounded product, and no a[i][k] is skipped: that equals
// the zero-skipping Go loop bit for bit exactly when B holds no NaN or
// infinity (a zero times a finite weight is a zero, and adding a zero of
// either sign to a sum that started at +0 never changes it), which the
// caller must have established.
func GemmPanels(out, a, panels []float32, lo, hi, k, n int) int {
	return gemmPanels(out, a, panels, lo, hi, k, n, 0)
}

// GemmPanelsAcc is GemmPanels with every accumulator starting from the
// element out already holds: out += a @ B, each element's add chain carried
// on in ascending k. It equals the zero-skipping Go loop under GemmPanels'
// condition when, besides, no element of out is -0 — true of anything a
// GemmPanels call or a Go GEMM loop left there, which is the one use (the
// second half of a split-weight GEMM).
func GemmPanelsAcc(out, a, panels []float32, lo, hi, k, n int) int {
	return gemmPanels(out, a, panels, lo, hi, k, n, 1)
}

func gemmPanels(out, a, panels []float32, lo, hi, k, n, acc int) int {
	full := n / lanes
	rows := hi - lo
	if !enabled || full == 0 || k <= 0 || lo < 0 || rows <= 0 ||
		len(a) < hi*k || len(out) < hi*n || len(panels) < full*k*lanes {
		return 0
	}
	// Whole blocks of four panels go one row at a time: four accumulator
	// chains per row. What is left of the panels has fewer chains per row,
	// so it goes four rows at a time; the rows past the last whole group are
	// recomputed together with the three before them, or one at a time when
	// that cannot be: when accumulating (a recomputed row would be added
	// twice) and when the range has no three rows before them (a row-subset
	// run's ranges are mostly single rows, program/rows.go).
	blocks := full / 4
	done := full
	// Row tiles keep a tile's A rows in cache across the panels they are
	// multiplied with (1k to 64k floats measured within 3 % of each other).
	tile := max(4, (gemmTileFloats/k)&^3)
	for r := lo; r < hi; r += tile {
		t := min(tile, hi-r)
		for b := 0; b < blocks; b++ {
			gemmRowPanels4(&out[r*n+b*4*lanes], &a[r*k], &panels[b*4*k*lanes], t, k, n*4, k*lanes*4, acc)
		}
		for p := blocks * 4; p < done; p++ {
			panel := &panels[p*k*lanes]
			if t >= 4 {
				gemmRows4Panel(&out[r*n+p*lanes], &a[r*k], panel, t/4, k, n*4, acc)
			}
			if rest := t % 4; rest != 0 {
				if acc != 0 || rows < 4 {
					gemmRow1Panel(&out[(hi-rest)*n+p*lanes], &a[(hi-rest)*k], panel, rest, k, n*4, acc)
				} else {
					gemmRows4Panel(&out[(hi-4)*n+p*lanes], &a[(hi-4)*k], panel, 1, k, n*4, acc)
				}
			}
		}
	}
	return done
}

// ReLU applies `if v < 0 { v = 0 }` to the leading elements of x it can take
// eight at a time and returns how many it finished; NaNs and -0 are left as
// they are, bit for bit.
func ReLU(x []float32) int {
	n := len(x) &^ (lanes - 1)
	if !enabled || n == 0 {
		return 0
	}
	relu(&x[0], n/lanes)
	return n
}

// LeakyReLU applies `if v < 0 { v = alpha * v }` the way ReLU applies its
// loop.
func LeakyReLU(x []float32, alpha float32) int {
	n := len(x) &^ (lanes - 1)
	if !enabled || n == 0 {
		return 0
	}
	leakyRelu(&x[0], n/lanes, alpha)
	return n
}

// AddScaled sets out[i] = a[i] + s*b[i] — the product rounded, then the sum —
// for the leading elements it can take eight at a time and returns how many
// it finished. out may be a or b exactly; an operand that overlaps out at an
// offset makes later elements depend on earlier stores, which only the
// element-at-a-time Go loop honours, so that call does nothing.
func AddScaled(out, a, b []float32, s float32) int {
	n := len(out) &^ (lanes - 1)
	if !enabled || n == 0 || len(a) < n || len(b) < n || shifted(out, a, n) || shifted(out, b, n) {
		return 0
	}
	addScaled(&out[0], &a[0], &b[0], n/lanes, s)
	return n
}

// Exp applies the float32 exponential t describes to the leading elements of
// x it can take eight at a time, in place, and returns how many it finished.
func Exp(x []float32, t *ExpTable) int {
	n := len(x) &^ (lanes - 1)
	if !enabled || n == 0 {
		return 0
	}
	expVec(&x[0], n/lanes, t)
	return n
}

// EdgeBinary sets row i of out (cols columns, a multiple of eight) to a's row
// i op b's row i, lane by lane, for i = 0, 1, ... and returns how many rows it
// finished: n, or fewer when row i of an operand is an index outside
// [0, Rows) — nothing was read through it, and the caller's Go loop, resuming
// at that row, raises the bounds panic — or none when the vector path is off
// or the slices do not cover what the kernel would touch. Division and the
// rest round once, as the Go operators do.
func EdgeBinary(op EdgeOp, out []float32, cols, n int, a, b EdgeOperand) int {
	if !enabled || op < 0 || int(op) >= len(edgeKernels) || n <= 0 || cols <= 0 || cols%lanes != 0 ||
		len(out)/cols < n || !a.covers(cols, n) || !b.covers(cols, n) {
		return 0
	}
	return edgeKernels[op](&out[0], cols/lanes, n, &a.Data[0], a.idx0(), a.Rows, &b.Data[0], b.idx0(), b.Rows)
}

// SegmentSum sets row r of out (cols columns, a multiple of eight) to the sum
// of data's rows [ptr[r]-base, ptr[r+1]-base), added in ascending order from
// +0 — an empty segment is a row of zeros — for r = 0, 1, ... and returns how
// many rows it finished: len(ptr)-1, or fewer when a segment does not lie in
// order inside data (the caller's Go loop, resuming at that row, raises the
// bounds panic), or none when the vector path is off or out is too short.
func SegmentSum(out []float32, cols int, data []float32, ptr []int32, base int) int {
	rows := len(ptr) - 1
	if !enabled || rows <= 0 || cols <= 0 || cols%lanes != 0 || len(out)/cols < rows || len(data) == 0 {
		return 0
	}
	return segmentSum(&out[0], cols/lanes, &data[0], &ptr[0], rows, base, len(data)/cols)
}

// covers reports whether n rows of cols columns read through o stay inside
// o.Data once every index has been checked against o.Rows.
func (o *EdgeOperand) covers(cols, n int) bool {
	if o.Idx == nil {
		return len(o.Data)/cols >= n
	}
	return len(o.Idx) >= n && o.Rows > 0 && o.Rows <= 1<<31-1 && len(o.Data)/cols >= o.Rows
}

func (o *EdgeOperand) idx0() *int32 {
	if o.Idx == nil {
		return nil
	}
	return &o.Idx[0]
}

// shifted reports whether the first n elements of x and y overlap without
// starting at the same element.
func shifted(x, y []float32, n int) bool {
	px, py := uintptr(unsafe.Pointer(&x[0])), uintptr(unsafe.Pointer(&y[0]))
	return px != py && px < py+uintptr(4*n) && py < px+uintptr(4*n)
}

// SumRows sets acc[j] to the sum over i of data[int(idx[i])*stride+j] for
// the leading columns j it can take eight at a time, adding in ascending i
// from +0, and returns how many columns it finished (the caller reduces the
// rest), or -1 if some idx[i] is outside [0, rows): then nothing was read
// through that index and the caller's Go form, re-run, raises the bounds
// panic.
func SumRows(acc, data []float32, stride, rows int, idx []int32) int {
	return sumRow(acc, data, stride, rows, idx, nil, nil)
}

// SumRowsScaled is SumRows with each row scaled by the scalar
// w[int(widx[i])] first, the product rounded before it is added. widx is as
// long as idx; an index of either outside its operand returns -1.
func SumRowsScaled(acc, data []float32, stride, rows int, idx []int32, w []float32, widx []int32) int {
	if len(widx) < len(idx) || len(w) == 0 || len(w) > 1<<31-1 {
		return 0
	}
	return sumRow(acc, data, stride, rows, idx, w, widx)
}

// sumRow is one row of the multi-row kernel: acc's leading whole vectors are
// its output row, idx its one segment.
func sumRow(acc, data []float32, stride, rows int, idx []int32, w []float32, widx []int32) int {
	cols := len(acc) &^ (lanes - 1)
	if !enabled || cols == 0 || len(idx) == 0 || len(idx) > 1<<31-1 || !gatherOK(len(acc), len(data), stride, rows) {
		return 0
	}
	// The checks above imply sumSpansOf's, so finishing no row means an
	// index failed its range check.
	ptr := [2]int32{0, int32(len(idx))}
	if sumSpansOf(acc[:cols], cols, data, stride, rows, idx, ptr[:], 0, w, widx, false) == 0 {
		return -1
	}
	return cols
}

// SumSpans is SumRows over a run of destination rows in one call: row r of
// out (cols columns, a multiple of eight; the rows follow one another) is the
// sum of data's rows idx[ptr[r]-base : ptr[r+1]-base], each column added in
// ascending order from +0 — an empty row is zeros — and, with mean, a
// non-empty row is then multiplied by 1/float32(n) for its n in-edges, both
// rounded, for r = 0, 1, ... It returns how many rows it finished: len(ptr)-1,
// or fewer when row r's segment does not satisfy 0 <= lo <= hi <= len(idx) or
// one of its indices is outside [0, rows) — nothing was read through the bad
// value and row r was not written, so the caller's Go loop, resuming at that
// row, raises the bounds panic — or none when the vector path is off or the
// arguments do not prove every in-range index in-bounds.
func SumSpans(out []float32, cols int, data []float32, stride, rows int, idx, ptr []int32, base int, mean bool) int {
	return sumSpansOf(out, cols, data, stride, rows, idx, ptr, base, nil, nil, mean)
}

// SumSpansScaled is SumSpans with each row scaled by the scalar
// w[int(widx[i])] first, the product rounded before it is added; widx is read
// at the positions idx is, so a segment must also end inside widx, and a
// scalar index outside [0, len(w)) stops the kernel as a row index does.
func SumSpansScaled(out []float32, cols int, data []float32, stride, rows int, idx, ptr []int32, base int, w []float32, widx []int32, mean bool) int {
	if len(w) == 0 || len(w) > 1<<31-1 {
		return 0
	}
	return sumSpansOf(out, cols, data, stride, rows, idx, ptr, base, w, widx, mean)
}

func sumSpansOf(out []float32, cols int, data []float32, stride, rows int, idx, ptr []int32, base int, w []float32, widx []int32, mean bool) int {
	nrows := len(ptr) - 1
	if !enabled || nrows <= 0 || cols <= 0 || cols%lanes != 0 || !gatherOK(cols, len(data), stride, rows) {
		return 0
	}
	// len(out) >= nrows*cols, checked without a division: a row run calls
	// this for a single row of a few edges.
	if hi, lo := bits.Mul64(uint64(nrows), uint64(cols)); hi != 0 || lo > uint64(len(out)) {
		return 0
	}
	// The kernel never dereferences an index slot past limit, so an empty
	// index array passes nil and leaves only empty segments in range.
	limit := len(idx)
	var pidx, pwidx *int32
	var pw *float32
	if limit > 0 {
		pidx = &idx[0]
	}
	if w != nil {
		limit = min(limit, len(widx))
		pw = &w[0]
		if len(widx) > 0 {
			pwidx = &widx[0]
		}
	}
	return sumSpans(&out[0], cols/lanes, &data[0], stride*4, rows, pidx, limit, &ptr[0], nrows, base, pw, pwidx, len(w), mean)
}

// MaxRows is SumRows for the maximum: every column starts at identity and a
// row's value replaces it only when strictly greater, so a NaN never enters
// and of two equal zeros the earlier stays — Go's `if s > c { c = s }`.
func MaxRows(acc, data []float32, stride, rows int, idx []int32, identity float32) int {
	return extremeRows(spanMax, acc, data, stride, rows, idx, identity)
}

// MinRows is MaxRows for the minimum (`if s < c { c = s }`).
func MinRows(acc, data []float32, stride, rows int, idx []int32, identity float32) int {
	return extremeRows(spanMin, acc, data, stride, rows, idx, identity)
}

func extremeRows(kernel func(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, identity float32) bool,
	acc, data []float32, stride, rows int, idx []int32, identity float32) int {
	if !enabled || len(idx) == 0 || !gatherOK(len(acc), len(data), stride, rows) {
		return 0
	}
	j := 0
	for _, nv := range spanPasses {
		for w := nv * lanes; j+w <= len(acc); j += w {
			if !kernel(&acc[j], nv, &data[j], stride*4, &idx[0], len(idx), rows, identity) {
				return -1
			}
		}
	}
	return j
}
