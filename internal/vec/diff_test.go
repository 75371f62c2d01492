package vec

import (
	"math"
	"math/rand"
	"testing"
)

// Randomized differential tests: every kernel against the scalar loop it
// stands for, written out here as the specification, over lengths 0-67,
// every start offset 0-7 before the end of a buffer whose last element sits
// against an inaccessible page, and inputs salted with the values a lane
// could get wrong — signed zeros, infinities, quiet and signalling NaNs of
// both signs, denormals.

var specials = []uint32{
	0x00000000, 0x80000000, // +0, -0
	0x7F800000, 0xFF800000, // +Inf, -Inf
	0x7FC00001, 0xFFC00001, // quiet NaN, both signs, with a payload
	0x7FA00000, 0xFFA00000, // signalling NaN, both signs
	0x00000001, 0x80000001, 0x007FFFFF, 0x807FFFFF, // denormals
	0x7F7FFFFF, 0xFF7FFFFF, // +-MaxFloat32
	0x3F800000, 0xBF800000, // +-1
}

// salted fills x with uniform values in [-2, 2), about a third of them
// replaced by specials (finite ones only when finite is set).
func salted(rng *rand.Rand, x []float32, finite bool) {
	for i := range x {
		x[i] = rng.Float32()*4 - 2
		if rng.Intn(3) == 0 {
			v := math.Float32frombits(specials[rng.Intn(len(specials))])
			if !finite || v-v == 0 {
				x[i] = v
			}
		}
	}
}

// sameBits reports the first index where got and want differ in their bits,
// or -1. With anyNaN, two NaNs match whatever their payloads: which payload
// survives when two NaNs meet depends on operand order, which Go leaves to
// its register allocator.
func sameBits(got, want []float32, anyNaN bool) int {
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(anyNaN && g != g && w != w) {
			return i
		}
	}
	return -1
}

// eachWindow calls f with every (length, offset) window of a guarded buffer:
// length 0-67, ending 0-7 elements before the inaccessible page.
func eachWindow(t *testing.T, f func(n, off int)) {
	t.Helper()
	for n := 0; n <= 67; n++ {
		for off := 0; off < 8; off++ {
			f(n, off)
		}
	}
}

const windowCap = 67 + 8 + 8 // the longest window, its offset, and eight elements of margin before it

// window cuts the (n, off) window out of buf and returns it with the
// elements around it, which a kernel must leave alone.
func window(buf []float32, n, off int) (x, before, after []float32) {
	end := len(buf) - off
	return buf[end-n : end], buf[:end-n], buf[end:]
}

func TestElementwiseEqualsGo(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(61))
	const alpha, scale = -0.3, -1.75 // a negative slope tells x < 0 from x <= 0 at -0
	kernels := []struct {
		name   string
		run    func(x, a, b []float32) int
		spec   func(x, a, b []float32)
		anyNaN bool
	}{
		{"relu", func(x, _, _ []float32) int { return ReLU(x) }, func(x, _, _ []float32) {
			for i, v := range x {
				if v < 0 {
					x[i] = 0
				}
			}
		}, false},
		{"leaky-relu", func(x, _, _ []float32) int { return LeakyReLU(x, alpha) }, func(x, _, _ []float32) {
			for i, v := range x {
				if v < 0 {
					x[i] = alpha * v
				}
			}
		}, false},
		{"add-scaled", func(x, a, b []float32) int { return AddScaled(x, a, b, scale) }, func(x, a, b []float32) {
			for i := range x {
				x[i] = a[i] + float32(scale*b[i])
			}
		}, true},
		{"add-scaled in place", func(x, _, b []float32) int { return AddScaled(x, x, b, scale) }, func(x, _, b []float32) {
			for i := range x {
				x[i] = x[i] + float32(scale*b[i])
			}
		}, true},
	}
	bufX, bufA, bufB := guarded(t, windowCap), guarded(t, windowCap), guarded(t, windowCap)
	for _, k := range kernels {
		eachWindow(t, func(n, off int) {
			salted(rng, bufX, false)
			salted(rng, bufA, false)
			salted(rng, bufB, false)
			x, before, after := window(bufX, n, off)
			a, _, _ := window(bufA, n, off)
			b, _, _ := window(bufB, n, off)
			want := append([]float32(nil), x...)
			k.spec(want, a, b)
			keepBefore, keepAfter := append([]float32(nil), before...), append([]float32(nil), after...)
			orig := append([]float32(nil), x...)

			done := k.run(x, a, b)
			if done != n&^7 {
				t.Fatalf("%s n=%d off=%d: finished %d elements, want %d", k.name, n, off, done, n&^7)
			}
			if i := sameBits(x[:done], want[:done], k.anyNaN); i >= 0 {
				t.Fatalf("%s n=%d off=%d: element %d is %08x, the Go loop gives %08x (input %08x)",
					k.name, n, off, i, math.Float32bits(x[i]), math.Float32bits(want[i]), math.Float32bits(orig[i]))
			}
			if sameBits(x[done:], orig[done:], false) >= 0 || sameBits(before, keepBefore, false) >= 0 || sameBits(after, keepAfter, false) >= 0 {
				t.Fatalf("%s n=%d off=%d: wrote outside the %d elements it reported", k.name, n, off, done)
			}
		})
	}

	// An operand overlapping the output at an offset is the Go loop's alone.
	buf := make([]float32, 40)
	if n := AddScaled(buf[1:33], buf[:32], buf[:32], 1); n != 0 {
		t.Errorf("add-scaled with a shifted alias of out as a finished %d elements, want 0", n)
	}
	if n := AddScaled(buf[:32], buf[8:40], buf[4:36], 1); n != 0 {
		t.Errorf("add-scaled with a shifted alias of out as b finished %d elements, want 0", n)
	}
}

// testExp is a float32 exponential's constants; expSpec is the scheme
// ExpTable documents, step for step, as the scalar loop.
var testExp = ExpTable{
	Log2e: 1.44269504088896341, Magic: 12582912, Ln2Hi: 0.693359375, Ln2Lo: -2.12194440e-4,
	C:  [6]float32{1.9875691500e-4, 1.3981999507e-3, 8.3334519073e-3, 4.1665795894e-2, 1.6666665459e-1, 5.0000001201e-1},
	Hi: 88.72283, Lo: -103.97208,
}

func expSpec(x float32, t *ExpTable) float32 {
	switch {
	case x != x:
		return x
	case x > t.Hi:
		return float32(math.Inf(1))
	case x < t.Lo:
		return 0
	}
	v := float32(x*t.Log2e) + t.Magic
	n := int32(math.Float32bits(v)) - int32(math.Float32bits(t.Magic))
	kf := v - t.Magic
	r := x - float32(kf*t.Ln2Hi)
	r -= float32(kf * t.Ln2Lo)
	p := t.C[0]
	for _, c := range t.C[1:] {
		p = float32(p*r) + c
	}
	y := float32(p*float32(r*r)) + r
	y++
	s1 := math.Float32frombits(uint32(n>>1)<<23 + 0x3F800000)
	s2 := math.Float32frombits(uint32(n-n>>1)<<23 + 0x3F800000)
	return float32(y*s1) * s2
}

func TestExpEqualsGo(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(73))
	buf := guarded(t, windowCap)
	for round := 0; round < 6; round++ {
		eachWindow(t, func(n, off int) {
			salted(rng, buf, false)
			for i := range buf {
				// Spread the finite values over the whole range, both
				// thresholds and the denormal results included.
				if v := buf[i]; v-v == 0 && rng.Intn(2) == 0 {
					buf[i] = v * 55
				}
			}
			x, before, after := window(buf, n, off)
			orig := append([]float32(nil), x...)
			keepBefore, keepAfter := append([]float32(nil), before...), append([]float32(nil), after...)
			done := Exp(x, &testExp)
			if done != n&^7 {
				t.Fatalf("n=%d off=%d: finished %d elements, want %d", n, off, done, n&^7)
			}
			for i := 0; i < done; i++ {
				if want := expSpec(orig[i], &testExp); math.Float32bits(x[i]) != math.Float32bits(want) {
					t.Fatalf("n=%d off=%d: exp(%v [%08x]) is %08x, the Go loop gives %08x",
						n, off, orig[i], math.Float32bits(orig[i]), math.Float32bits(x[i]), math.Float32bits(want))
				}
			}
			if sameBits(x[done:], orig[done:], false) >= 0 || sameBits(before, keepBefore, false) >= 0 || sameBits(after, keepAfter, false) >= 0 {
				t.Fatalf("n=%d off=%d: wrote outside the %d elements it reported", n, off, done)
			}
		})
	}
}

// TestEdgeBinaryEqualsGo: every operator x operand addressing (indexed or the
// output's own row, per operand) x width in {8, 16, 64}, over 0-67 rows ending
// against the guard page, equals the scalar loop; a row whose index is out of
// range stops the kernel there with the rows before it written and nothing
// after.
func TestEdgeBinaryEqualsGo(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(79))
	ops := []struct {
		op   EdgeOp
		name string
		f    func(a, b float32) float32
	}{
		{EdgeAdd, "add", func(a, b float32) float32 { return a + b }},
		{EdgeSub, "sub", func(a, b float32) float32 { return a - b }},
		{EdgeMul, "mul", func(a, b float32) float32 { return a * b }},
		{EdgeDiv, "div", func(a, b float32) float32 { return a / b }},
	}
	const maxRows, tableRows = 67, 9
	for _, cols := range []int{8, 16, 64} {
		out := guarded(t, maxRows*cols)
		seqA, seqB := guarded(t, maxRows*cols), guarded(t, maxRows*cols)
		tabA, tabB := guarded(t, tableRows*cols), guarded(t, tableRows*cols)
		for _, o := range ops {
			for mode := 0; mode < 4; mode++ {
				for n := 0; n <= maxRows; n++ {
					for _, buf := range [][]float32{seqA, seqB, tabA, tabB} {
						salted(rng, buf, false)
					}
					// Windows end at the guard page: the last row's last lane
					// is the last accessible float.
					dst := out[(maxRows-n)*cols:]
					for i := range out {
						out[i] = -7
					}
					operand := func(seq, tab []float32, indexed bool) (EdgeOperand, func(i, j int) float32) {
						if !indexed {
							d := seq[(maxRows-n)*cols:]
							return EdgeOperand{Data: d}, func(i, j int) float32 { return d[i*cols+j] }
						}
						idx := make([]int32, n)
						for i := range idx {
							idx[i] = int32(rng.Intn(tableRows))
						}
						return EdgeOperand{Data: tab, Idx: idx, Rows: tableRows}, func(i, j int) float32 { return tab[int(idx[i])*cols+j] }
					}
					a, atA := operand(seqA, tabA, mode&1 != 0)
					b, atB := operand(seqB, tabB, mode&2 != 0)
					// Now and then one index is out of range, past the end or negative.
					bad := -1
					if n > 0 && mode != 0 && rng.Intn(4) == 0 {
						bad = rng.Intn(n)
						idx := a.Idx
						if idx == nil || (b.Idx != nil && rng.Intn(2) == 0) {
							idx = b.Idx
						}
						idx[bad] = []int32{tableRows, -1, math.MaxInt32}[rng.Intn(3)]
					}
					done := EdgeBinary(o.op, dst, cols, n, a, b)
					if want := map[bool]int{true: n, false: bad}[bad < 0]; done != want {
						t.Fatalf("%s cols=%d mode=%d n=%d bad=%d: finished %d rows, want %d", o.name, cols, mode, n, bad, done, want)
					}
					for i := 0; i < done; i++ {
						for j := 0; j < cols; j++ {
							got, want := dst[i*cols+j], o.f(atA(i, j), atB(i, j))
							if math.Float32bits(got) != math.Float32bits(want) && !(got != got && want != want) {
								t.Fatalf("%s cols=%d mode=%d n=%d: row %d column %d is %08x, the Go loop gives %08x",
									o.name, cols, mode, n, i, j, math.Float32bits(got), math.Float32bits(want))
							}
						}
					}
					for i, v := range out {
						if (i < (maxRows-n)*cols || i >= (maxRows-n+done)*cols) && v != -7 {
							t.Fatalf("%s cols=%d mode=%d n=%d: wrote outside the %d rows it reported", o.name, cols, mode, n, done)
						}
					}
				}
			}
		}
	}
	// What the wrapper cannot prove in-bounds it leaves to the Go loop.
	x := make([]float32, 64)
	for name, done := range map[string]int{
		"width not a multiple of eight": EdgeBinary(EdgeAdd, x, 4, 2, EdgeOperand{Data: x}, EdgeOperand{Data: x}),
		"output too short":              EdgeBinary(EdgeAdd, x[:8], 8, 2, EdgeOperand{Data: x}, EdgeOperand{Data: x}),
		"sequential operand too short":  EdgeBinary(EdgeAdd, x, 8, 2, EdgeOperand{Data: x[:8]}, EdgeOperand{Data: x}),
		"index array too short":         EdgeBinary(EdgeAdd, x, 8, 2, EdgeOperand{Data: x, Idx: []int32{0}, Rows: 8}, EdgeOperand{Data: x}),
		"rows beyond the data":          EdgeBinary(EdgeAdd, x, 8, 2, EdgeOperand{Data: x, Idx: []int32{0, 1}, Rows: 9}, EdgeOperand{Data: x}),
		"unknown operator":              EdgeBinary(EdgeOp(7), x, 8, 2, EdgeOperand{Data: x}, EdgeOperand{Data: x}),
	} {
		if done != 0 {
			t.Errorf("%s: finished %d rows, want 0", name, done)
		}
	}
}

// TestSegmentSumEqualsGo: runs of consecutive rows summed per output row,
// at widths 8, 16 and 64 with empty, single-row and long segments, equal the
// scalar loop (ascending order from +0, an empty segment a row of zeros); a
// segment out of order or outside the data stops the kernel at its row.
func TestSegmentSumEqualsGo(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(83))
	for iter := 0; iter < 300; iter++ {
		cols := []int{8, 16, 64}[rng.Intn(3)]
		rows, base := rng.Intn(12), rng.Intn(1000)
		ptr := make([]int32, rows+1)
		ptr[0] = int32(base)
		for r := 1; r <= rows; r++ {
			ptr[r] = ptr[r-1] + int32([]int{0, 0, 1, 1, 2, 5, 40}[rng.Intn(7)])
		}
		edges := int(ptr[rows]) - base
		data, out := guarded(t, edges*cols), guarded(t, rows*cols)
		salted(rng, data, false)
		bad := -1
		if rows > 0 && rng.Intn(4) == 0 {
			// One boundary steps back before its segment's start or past the data.
			bad = rng.Intn(rows)
			ptr[bad+1] = []int32{ptr[bad] - 1, int32(base + edges + 1), int32(base) - 1}[rng.Intn(3)]
		}
		for i := range out {
			out[i] = -7
		}
		done := SegmentSum(out, cols, data, ptr, base)
		want := rows
		if bad >= 0 {
			// The corrupted boundary ends row bad and starts row bad+1; whichever
			// of the two is out of order or out of range first stops the kernel.
			lo, hi := int(ptr[bad])-base, int(ptr[bad+1])-base
			want = bad + 1
			if lo > hi || hi > edges || hi < 0 {
				want = bad
			}
		}
		if edges == 0 || rows == 0 {
			want = 0 // nothing to point the kernel at: the Go loop's
		}
		if done != want {
			t.Fatalf("cols=%d ptr=%v base=%d bad=%d: finished %d rows, want %d", cols, ptr, base, bad, done, want)
		}
		for r := 0; r < done; r++ {
			for j := 0; j < cols; j++ {
				var sum float32
				for i := int(ptr[r]) - base; i < int(ptr[r+1])-base; i++ {
					sum += data[i*cols+j]
				}
				if got := out[r*cols+j]; math.Float32bits(got) != math.Float32bits(sum) && !(got != got && sum != sum) {
					t.Fatalf("cols=%d ptr=%v: row %d column %d is %08x, the Go loop gives %08x", cols, ptr, r, j, math.Float32bits(got), math.Float32bits(sum))
				}
			}
		}
		for _, v := range out[done*cols:] {
			if v != -7 {
				t.Fatalf("cols=%d ptr=%v: wrote past the %d rows it reported", cols, ptr, done)
			}
		}
	}
	x := make([]float32, 64)
	if n := SegmentSum(x, 4, x, []int32{0, 2}, 0); n != 0 {
		t.Errorf("width not a multiple of eight: finished %d rows, want 0", n)
	}
	if n := SegmentSum(x[:8], 8, x, []int32{0, 1, 2}, 0); n != 0 {
		t.Errorf("output too short: finished %d rows, want 0", n)
	}
}

// gemmSpec is the packed GEMM's scalar form: ascending k per element, the
// product rounded, a zero a[i][k] skipped, from +0 or from out's element.
func gemmSpec(out, a, panels []float32, lo, hi, k, n, upTo int, acc bool) {
	for i := lo; i < hi; i++ {
		for j := 0; j < upTo*lanes; j++ {
			var s float32
			if acc {
				s = out[i*n+j]
			}
			for kk := 0; kk < k; kk++ {
				if av := a[i*k+kk]; av != 0 {
					s += float32(av * panels[(j/lanes)*k*lanes+kk*lanes+j%lanes])
				}
			}
			out[i*n+j] = s
		}
	}
}

func TestGemmPanelsEqualsGo(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(67))
	for iter := 0; iter < 400; iter++ {
		m, k := 1+rng.Intn(13), 1+rng.Intn(40)
		n := lanes*(1+rng.Intn(9)) + rng.Intn(lanes) // whole panels plus a tail the kernel must not touch
		lo := rng.Intn(m)
		hi := lo + 1 + rng.Intn(m-lo)
		a, out := guarded(t, m*k), guarded(t, m*n)
		panels := guarded(t, (n/lanes)*k*lanes)
		salted(rng, a, false)
		salted(rng, panels, true)
		for _, acc := range []bool{false, true} {
			for i := range out {
				out[i] = float32(i) // what rows outside [lo, hi) and the tail columns must still hold
			}
			run := GemmPanels
			if acc {
				// What an accumulating call continues: a first pass's sums.
				first := make([]float32, len(a))
				salted(rng, first, false)
				gemmSpec(out, first, panels, lo, hi, k, n, n/lanes, false)
				run = GemmPanelsAcc
			}
			want := append([]float32(nil), out...)
			done := run(out, a, panels, lo, hi, k, n)
			if wantDone := n / lanes; done != wantDone {
				t.Fatalf("acc=%v %dx%dx%d rows [%d,%d): finished %d panels of %d", acc, m, k, n, lo, hi, done, wantDone)
			}
			gemmSpec(want, a, panels, lo, hi, k, n, done, acc)
			if i := sameBits(out, want, true); i >= 0 {
				t.Fatalf("acc=%v %dx%dx%d rows [%d,%d): element (%d,%d) is %08x, the Go loop gives %08x",
					acc, m, k, n, lo, hi, i/n, i%n, math.Float32bits(out[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestSpanKernelsEqualGo(t *testing.T) {
	needKernels(t)
	rng := rand.New(rand.NewSource(71))
	for iter := 0; iter < 400; iter++ {
		rows, edges := 1+rng.Intn(9), 1+rng.Intn(12)
		width := 1 + rng.Intn(72)
		stride := width + rng.Intn(3)
		data, acc := guarded(t, rows*stride), guarded(t, width)
		w := guarded(t, edges)
		salted(rng, data, false)
		salted(rng, w, false)
		idx, widx := make([]int32, edges), make([]int32, edges)
		for i := range idx {
			idx[i], widx[i] = int32(rng.Intn(rows)), int32(rng.Intn(edges))
		}
		reduce := func(start float32, step func(c, s float32, i int) float32) []float32 {
			want := make([]float32, width)
			for j := range want {
				c := start
				for i, x := range idx {
					c = step(c, data[int(x)*stride+j], i)
				}
				want[j] = c
			}
			return want
		}
		kernels := []struct {
			name string
			run  func() int
			want []float32
		}{
			{"sum", func() int { return SumRows(acc, data, stride, rows, idx) },
				reduce(0, func(c, s float32, _ int) float32 { return c + s })},
			{"scaled", func() int { return SumRowsScaled(acc, data, stride, rows, idx, w, widx) },
				reduce(0, func(c, s float32, i int) float32 { return c + float32(s*w[widx[i]]) })},
			{"max", func() int { return MaxRows(acc, data, stride, rows, idx, -math.MaxFloat32) },
				reduce(-math.MaxFloat32, func(c, s float32, _ int) float32 {
					if s > c {
						return s
					}
					return c
				})},
			{"min", func() int { return MinRows(acc, data, stride, rows, idx, math.MaxFloat32) },
				reduce(math.MaxFloat32, func(c, s float32, _ int) float32 {
					if s < c {
						return s
					}
					return c
				})},
		}
		for _, k := range kernels {
			for j := range acc {
				acc[j] = -7
			}
			done := k.run()
			if done != width&^7 {
				t.Fatalf("%s width %d: finished %d columns, want %d", k.name, width, done, width&^7)
			}
			if i := sameBits(acc[:done], k.want[:done], true); i >= 0 {
				t.Fatalf("%s width %d stride %d, %d edges: column %d is %08x, the Go loop gives %08x",
					k.name, width, stride, edges, i, math.Float32bits(acc[i]), math.Float32bits(k.want[i]))
			}
			for _, v := range acc[done:] {
				if v != -7 {
					t.Fatalf("%s width %d: wrote past the %d columns it reported", k.name, width, done)
				}
			}
		}
	}
}
