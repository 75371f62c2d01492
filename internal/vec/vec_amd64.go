package vec

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
func gemmRowPanels4(out, a, panel *float32, rows, k, ostride, pstride int)

//go:noescape
func gemmRows4Panel(out, a, panel *float32, groups, k, ostride int)

//go:noescape
func spanSum(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int) bool

//go:noescape
func spanSumScaled(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, w *float32, widx *int32, wrows int) bool

//go:noescape
func spanMax(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, identity float32) bool

//go:noescape
func spanMin(acc *float32, nvec int, data *float32, stride int, idx *int32, n int, rows int, identity float32) bool

// Widths of one pass of a span kernel, in 8-column vectors: 32 columns give
// the in-edge loop four independent accumulator chains, 16 and 8 serve what
// is left of a row.
var spanPasses = [...]int{4, 2, 1}

// lanes is the vector width in float32 columns.
const lanes = 8

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
	full := n / lanes
	rows := hi - lo
	if !enabled || full == 0 || k <= 0 || lo < 0 || rows <= 0 ||
		len(a) < hi*k || len(out) < hi*n || len(panels) < full*k*lanes {
		return 0
	}
	// Whole blocks of four panels go one row at a time: four accumulator
	// chains per row. What is left of the panels has fewer chains per row,
	// so it goes four rows at a time, which takes four rows.
	blocks := full / 4
	done := full
	if rows < 4 {
		done = blocks * 4
	}
	// Row tiles keep a tile's A rows in cache across the panels they are
	// multiplied with (1k to 64k floats measured within 3 % of each other).
	tile := max(4, (gemmTileFloats/k)&^3)
	for r := lo; r < hi; r += tile {
		t := min(tile, hi-r)
		for b := 0; b < blocks; b++ {
			gemmRowPanels4(&out[r*n+b*4*lanes], &a[r*k], &panels[b*4*k*lanes], t, k, n*4, k*lanes*4)
		}
		for p := blocks * 4; p < done; p++ {
			panel := &panels[p*k*lanes]
			if t >= 4 {
				gemmRows4Panel(&out[r*n+p*lanes], &a[r*k], panel, t/4, k, n*4)
			}
			if t%4 != 0 {
				// The last group re-computes up to three rows of the one
				// before it rather than leave them to the scalar loop.
				gemmRows4Panel(&out[(hi-4)*n+p*lanes], &a[(hi-4)*k], panel, 1, k, n*4)
			}
		}
	}
	return done
}

// SumRows sets acc[j] to the sum over i of data[int(idx[i])*stride+j] for
// the leading columns j it can take eight at a time, adding in ascending i
// from +0, and returns how many columns it finished (the caller reduces the
// rest), or -1 if some idx[i] is outside [0, rows): then nothing was read
// through that index and the caller's Go form, re-run, raises the bounds
// panic.
func SumRows(acc, data []float32, stride, rows int, idx []int32) int {
	if !enabled || len(idx) == 0 || !gatherOK(len(acc), len(data), stride, rows) {
		return 0
	}
	j := 0
	for _, nv := range spanPasses {
		for w := nv * lanes; j+w <= len(acc); j += w {
			if !spanSum(&acc[j], nv, &data[j], stride*4, &idx[0], len(idx), rows) {
				return -1
			}
		}
	}
	return j
}

// SumRowsScaled is SumRows with each row scaled by the scalar
// w[int(widx[i])] first, the product rounded before it is added. widx is as
// long as idx; an index of either outside its operand returns -1.
func SumRowsScaled(acc, data []float32, stride, rows int, idx []int32, w []float32, widx []int32) int {
	if !enabled || len(idx) == 0 || len(widx) < len(idx) || len(w) == 0 || len(w) > 1<<31-1 ||
		!gatherOK(len(acc), len(data), stride, rows) {
		return 0
	}
	j := 0
	for _, nv := range spanPasses {
		for c := nv * lanes; j+c <= len(acc); j += c {
			if !spanSumScaled(&acc[j], nv, &data[j], stride*4, &idx[0], len(idx), rows, &w[0], &widx[0], len(w)) {
				return -1
			}
		}
	}
	return j
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
