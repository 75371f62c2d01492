package vec

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// guardedIdx is guarded for an index array: n int32s whose last one sits
// against an inaccessible page.
func guardedIdx(t testing.TB, n int) []int32 {
	f := guarded(t, n)
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&f[0])), n)
}

// spanCall is one call of the multi-row span kernels: SumSpans with a nil w,
// SumSpansScaled otherwise.
type spanCall struct {
	cols, stride, rows int
	data               []float32
	idx, ptr           []int32
	base               int
	w                  []float32
	widx               []int32
	mean               bool
}

func (c *spanCall) run(out []float32) int {
	if c.w == nil {
		return SumSpans(out, c.cols, c.data, c.stride, c.rows, c.idx, c.ptr, c.base, c.mean)
	}
	return SumSpansScaled(out, c.cols, c.data, c.stride, c.rows, c.idx, c.ptr, c.base, c.w, c.widx, c.mean)
}

// goLoop is the specification: the per-row Go loop the kernels stand for —
// rowReducer.reduce over each row's slice of the in-edge arrays — and the
// number of rows it finishes before a row whose slicing or indexing panics.
func (c *spanCall) goLoop(out []float32) int {
	for r := 0; r+1 < len(c.ptr); r++ {
		if !c.goRow(out[r*c.cols:(r+1)*c.cols], r) {
			return r
		}
	}
	return len(c.ptr) - 1
}

// goRow computes row r into a scratch row and copies it to out when no
// bounds check failed, so a panicking row leaves out as it was.
func (c *spanCall) goRow(out []float32, r int) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	lo, hi := int(c.ptr[r])-c.base, int(c.ptr[r+1])-c.base
	idx := c.idx[lo:hi]
	var widx []int32
	if c.w != nil {
		widx = c.widx[lo:hi]
	}
	row := make([]float32, c.cols)
	for j := range row {
		var s float32
		for i, x := range idx {
			v := c.data[int(x)*c.stride+j]
			if c.w != nil {
				v = float32(v * c.w[widx[i]])
			}
			s += v
		}
		row[j] = s
	}
	if c.mean && hi > lo {
		inv := 1 / float32(hi-lo)
		for j := range row {
			row[j] *= inv
		}
	}
	copy(out, row)
	return true
}

// check runs c on guarded output memory and holds it to the Go loop: the
// same count of finished rows, those rows bit for bit (any NaN for a NaN:
// which payload survives two NaNs meeting is the register allocator's), and
// nothing written past them. It returns the count and the output.
func (c *spanCall) check(t testing.TB, what string) (int, []float32) {
	t.Helper()
	nrows := max(len(c.ptr)-1, 0)
	out, want := guarded(t, nrows*c.cols), make([]float32, nrows*c.cols)
	for i := range out {
		out[i], want[i] = -7, -7
	}
	done, wantDone := c.run(out), c.goLoop(want)
	if done != wantDone {
		t.Fatalf("%s: finished %d rows, the Go loop finishes %d (ptr %v base %d, %d indices)",
			what, done, wantDone, c.ptr, c.base, len(c.idx))
	}
	if i := sameBits(out, want, true); i >= 0 {
		t.Fatalf("%s: row %d column %d is %08x, the Go loop gives %08x",
			what, i/c.cols, i%c.cols, math.Float32bits(out[i]), math.Float32bits(want[i]))
	}
	return done, out
}

// randomCSR draws nrows in-edge lists over a data operand of rows rows:
// degrees 0, 1, 2, 5 or a hub's 40, the first list starting a few slots into
// idx, ptr offset by base.
func randomCSR(t testing.TB, rng *rand.Rand, nrows, rows, base int) (idx, ptr []int32) {
	ptr = guardedIdx(t, nrows+1)
	ptr[0] = int32(base + rng.Intn(3))
	for r := 1; r <= nrows; r++ {
		ptr[r] = ptr[r-1] + int32([]int{0, 0, 1, 2, 5, 40}[rng.Intn(6)])
	}
	idx = guardedIdx(t, int(ptr[nrows])-base)
	for i := range idx {
		idx[i] = int32(rng.Intn(rows))
	}
	return idx, ptr
}

// TestSpanRowsEqualGo: the multi-row kernels, at every width 8-64 the rows
// take in passes of 4, 2 and 1 vectors, over zero-degree rows and hubs, on
// salted operands (NaN, infinities, signed zeros, denormals) whose last
// element sits against a guard page, with and without mean, equal the
// per-row Go loop and, bit for bit with NaN payloads too, the per-row vector
// kernels. A bad source or scalar index in row k, a segment running
// backwards, starting below zero or ending past the index array stop the
// kernel at row k with nothing written from row k on.
func TestSpanRowsEqualGo(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(89))
	for iter := 0; iter < 400; iter++ {
		cols := 8 * (1 + iter%8)
		rows := 1 + rng.Intn(9)
		c := spanCall{cols: cols, stride: cols + []int{0, 0, 1, 8}[rng.Intn(4)], rows: rows, base: rng.Intn(1000), mean: rng.Intn(2) == 0}
		c.data = guarded(t, rows*c.stride)
		salted(rng, c.data, false)
		nrows := rng.Intn(12)
		c.idx, c.ptr = randomCSR(t, rng, nrows, rows, c.base)
		if iter%2 == 1 {
			c.w, c.widx = guarded(t, 1+rng.Intn(6)), guardedIdx(t, len(c.idx))
			salted(rng, c.w, false)
			for i := range c.widx {
				c.widx[i] = int32(rng.Intn(len(c.w)))
			}
		}
		bad := -1
		if nrows > 0 && rng.Intn(3) == 0 {
			bad = rng.Intn(nrows)
			lo, hi := int(c.ptr[bad])-c.base, int(c.ptr[bad+1])-c.base
			switch corrupt := rng.Intn(5); {
			case corrupt == 0 && hi > lo:
				c.idx[lo+rng.Intn(hi-lo)] = []int32{int32(rows), -1, math.MinInt32, math.MaxInt32}[rng.Intn(4)]
			case corrupt == 1 && hi > lo && c.w != nil:
				c.widx[lo+rng.Intn(hi-lo)] = []int32{int32(len(c.w)), -1, math.MinInt32}[rng.Intn(3)]
			case corrupt == 2:
				c.ptr[bad+1] = c.ptr[bad] - 1 // runs backwards
			case corrupt == 3:
				c.ptr[bad+1] = int32(c.base + len(c.idx) + 1) // ends past idx
			case corrupt == 4 && bad == 0:
				c.ptr[0] = int32(c.base - 1) // starts below zero
			default:
				bad = -1
			}
		}
		done, out := c.check(t, "random CSR")
		if bad >= 0 && done != bad {
			t.Fatalf("corrupt row %d of %d (ptr %v): finished %d rows", bad, nrows, c.ptr, done)
		}
		if bad < 0 && done != nrows {
			t.Fatalf("finished %d of %d well-formed rows", done, nrows)
		}
		// The per-row vector kernel gives each finished row the same bits.
		acc := make([]float32, cols)
		for r := 0; r < done; r++ {
			lo, hi := int(c.ptr[r])-c.base, int(c.ptr[r+1])-c.base
			if lo == hi {
				continue
			}
			n := SumRows(acc, c.data, c.stride, rows, c.idx[lo:hi])
			if c.w != nil {
				n = SumRowsScaled(acc, c.data, c.stride, rows, c.idx[lo:hi], c.w, c.widx[lo:hi])
			}
			if n != cols {
				t.Fatalf("per-row kernel finished %d of %d columns", n, cols)
			}
			if c.mean {
				inv := 1 / float32(hi-lo)
				for j := range acc {
					acc[j] *= inv
				}
			}
			if i := sameBits(out[r*cols:(r+1)*cols], acc, false); i >= 0 {
				t.Fatalf("row %d column %d is %08x, the per-row kernel gives %08x",
					r, i, math.Float32bits(out[r*cols+i]), math.Float32bits(acc[i]))
			}
		}
	}

	// A width that is not a multiple of eight is the per-row path's.
	idx, ptr := []int32{0, 1}, []int32{0, 2}
	data := make([]float32, 2*12)
	if n := SumSpans(make([]float32, 12), 12, data, 12, 2, idx, ptr, 0, false); n != 0 {
		t.Errorf("width 12: finished %d rows, want 0", n)
	}
}

// FuzzSpanRows: small CSRs whose row pointers, source indices and scalar
// indices may be anything — backwards, negative, past the end — never make
// the multi-row kernels read or write outside their slices (every buffer
// ends at a guard page), and the kernels finish exactly the rows the per-row
// Go loop finishes before it would panic, with the same bits.
//
// shape picks the width (8-64), the scaled form, mean, a padded stride and
// the operand's row count; each byte of ptrs is a row-pointer step (mostly
// 0-7, a step back or a jump past the index array from 0xEF up); idxs and
// widxs are indices into the operands (mostly in range, hostile from 0xF0).
func FuzzSpanRows(f *testing.F) {
	f.Add(uint8(0x00), []byte{0, 1, 2, 0, 3}, []byte{0, 0, 0, 0, 0, 0}, []byte{})
	f.Add(uint8(0x5b), []byte{1, 4, 0, 2}, []byte{1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 0, 1, 2, 0})
	f.Add(uint8(0x1f), []byte{2, 3, 0xf3, 1}, []byte{0, 1, 0xf1, 1, 2}, []byte{0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, shape uint8, ptrs, idxs, widxs []byte) {
		needKernels(t)
		if len(ptrs) > 64 || len(idxs) > 512 || len(widxs) > 512 {
			return
		}
		cols := lanes * (1 + int(shape&7))
		rows := 1 + 3*int(shape>>6)
		c := spanCall{cols: cols, stride: cols + 3*int(shape>>5&1), rows: rows, base: 3, mean: shape&16 != 0}
		rng := rand.New(rand.NewSource(int64(shape) + 131*int64(len(idxs))))
		c.data = guarded(t, rows*c.stride)
		salted(rng, c.data, false)
		index := func(b byte, n int) int32 {
			if b < 0xf0 {
				return int32(int(b) % (n + 1)) // n itself is one past the end
			}
			return []int32{-1, math.MinInt32, math.MaxInt32, int32(n), -int32(b & 15)}[b%5]
		}
		c.idx = guardedIdx(t, len(idxs))
		for i, b := range idxs {
			c.idx[i] = index(b, rows)
		}
		c.ptr = guardedIdx(t, len(ptrs)+1)
		c.ptr[0] = int32(c.base)
		for i, b := range ptrs {
			step := int32(b % 8)
			switch {
			case b == 0xef:
				step = int32(len(idxs) + 1)
			case b >= 0xf0:
				step = -int32(b&15) - 1
			}
			c.ptr[i+1] = c.ptr[i] + step
		}
		if shape&8 != 0 {
			c.w = guarded(t, rows)
			salted(rng, c.w, false)
			c.widx = guardedIdx(t, len(widxs))
			for i, b := range widxs {
				c.widx[i] = index(b, rows)
			}
		}
		c.check(t, "fuzzed CSR")
	})
}
