package tensor

import (
	"math"
	"testing"

	"repro/internal/vec/vectest"
)

// ulpsApart is how many representable float32 values lie between a and b
// (0 = equal; +0 and -0 are neighbours).
func ulpsApart(a, b float32) int64 {
	ord := func(f float32) int64 {
		b := int64(int32(math.Float32bits(f)))
		if b < 0 {
			b = math.MinInt32 - b // negative values count down from -0
		}
		return b
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return d
}

// TestExpWithinTwoUlp holds the float32 exponential — the vector kernel and
// the Go definition after it, and the Go definition alone — against
// float32(math.Exp): within 2 ulp on every 256th bit pattern and on the
// patterns around them a lane could get wrong, and equal at the values with an
// exact answer: +-0, +-Inf, a NaN, and everything beyond the two thresholds.
func TestExpWithinTwoUlp(t *testing.T) {
	vectest.EachKernelSet(t, testExpWithinTwoUlp)
}

func testExpWithinTwoUlp(t *testing.T) {
	// Inputs are evaluated a batch at a time, the batch one element longer
	// than a multiple of the kernel's width so that the Go tail runs too, and
	// every element must also be exp32's own result.
	const batch = 1<<12 + 1
	in, out := NewDense(1, batch), NewDense(1, batch)
	n, worst := 0, int64(0)
	flush := func() {
		copy(out.Data[:n], in.Data[:n])
		o := out.RowRange(0, 1)
		o.Cols, o.Data = n, o.Data[:n]
		Exp(&o)
		for i, x := range in.Data[:n] {
			got, def := out.Data[i], exp32(x)
			if math.Float32bits(got) != math.Float32bits(def) {
				t.Fatalf("Exp(%v [%08x]) at element %d of %d is %08x, exp32 gives %08x", x, math.Float32bits(x), i, n, math.Float32bits(got), math.Float32bits(def))
			}
			want := float32(math.Exp(float64(x)))
			d := ulpsApart(got, want)
			if d > 2 {
				t.Fatalf("exp(%v [%08x]) = %v [%08x], math.Exp gives %v [%08x]: %d ulp apart, want at most 2",
					x, math.Float32bits(x), got, math.Float32bits(got), want, math.Float32bits(want), d)
			}
			worst = max(worst, d)
		}
		n = 0
	}
	check := func(bits uint32) {
		if x := math.Float32frombits(bits); x == x {
			in.Data[n] = x
			if n++; n == batch {
				flush()
			}
		}
	}
	for bits := uint64(0); bits < 1<<32; bits += 256 {
		check(uint32(bits))
	}
	hi, lo := math.Float32bits(expHi), math.Float32bits(expLo)
	for _, b := range []uint32{1, 0x80000001, 0x007FFFFF, 0x807FFFFF, 0x00800000, 0x80800000, 0x7F7FFFFF, 0xFF7FFFFF} {
		check(b) // denormals, the smallest normals, +-MaxFloat32
	}
	for d := uint32(0); d < 64; d++ { // both sides of both thresholds
		check(hi - d)
		check(hi + d)
		check(lo - d)
		check(lo + d)
	}
	flush()
	t.Logf("worst case %d ulp", worst)

	// The values with an exact answer, each in a block of eight copies for
	// the kernel and a ninth for the Go tail.
	block := NewDense(1, 9)
	eval := func(x float32) float32 {
		block.Fill(x)
		Exp(block)
		if a, b := math.Float32bits(block.Data[0]), math.Float32bits(block.Data[8]); a != b {
			t.Fatalf("Exp(%v): the kernel gives %08x, the Go definition %08x", x, a, b)
		}
		return block.Data[0]
	}
	inf := float32(math.Inf(1))
	exact := []struct{ x, want float32 }{
		{0, 1}, {float32(math.Copysign(0, -1)), 1}, {inf, inf}, {-inf, 0},
		{math.Float32frombits(hi + 1), inf}, {math.MaxFloat32, inf},
		{math.Float32frombits(lo + 1), 0}, {-math.MaxFloat32, 0},
	}
	for _, c := range exact {
		if got := eval(c.x); math.Float32bits(got) != math.Float32bits(c.want) {
			t.Errorf("exp(%v) = %v [%08x], want exactly %v", c.x, got, math.Float32bits(got), c.want)
		}
	}
	if got := eval(math.Float32frombits(hi)); got > math.MaxFloat32 {
		t.Errorf("exp(%v) = %v, want the last finite result", float32(expHi), got)
	}
	if got := eval(math.Float32frombits(lo)); got != math.SmallestNonzeroFloat32 {
		t.Errorf("exp(%v) = %v, want the smallest denormal", float32(expLo), got)
	}
	// A NaN comes back as itself, payload and sign included.
	for _, b := range []uint32{0x7FC00001, 0xFFC00001, 0x7FA00000, 0xFFA00000} {
		if got := eval(math.Float32frombits(b)); math.Float32bits(got) != b {
			t.Errorf("exp(NaN %08x) = %08x, want the same NaN", b, math.Float32bits(got))
		}
	}
}
