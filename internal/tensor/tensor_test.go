package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/vec"
	"repro/internal/vec/vectest"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{Null: "Null", SrcV: "Src_V", DstV: "Dst_V", EdgeK: "Edge"}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string")
	}
	if !SrcV.IsVertex() || !DstV.IsVertex() || EdgeK.IsVertex() || Null.IsVertex() {
		t.Error("IsVertex misclassifies")
	}
}

func TestDenseBasics(t *testing.T) {
	d := NewDense(3, 4)
	d.Data[1*d.Cols+2] = 5
	if d.At(1, 2) != 5 {
		t.Fatal("At mismatch")
	}
	if len(d.Row(1)) != 4 || d.Row(1)[2] != 5 {
		t.Fatal("Row aliasing broken")
	}
	c := d.Clone()
	c.Data[1*c.Cols+2] = 7
	if d.At(1, 2) != 5 {
		t.Fatal("Clone not deep")
	}
	d.Fill(2)
	if d.At(0, 0) != 2 {
		t.Fatal("Fill failed")
	}
	d.Zero()
	if d.At(2, 3) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestFromSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestEqualAndAllClose(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{1, 2, 3.00001})
	if a.Equal(b) {
		t.Fatal("Equal should be exact")
	}
	if !a.AllClose(b, 1e-5, 1e-5) {
		t.Fatal("AllClose should tolerate tiny diff")
	}
	c := FromSlice(3, 1, []float32{1, 2, 3})
	if a.Equal(c) || a.AllClose(c, 1, 1) {
		t.Fatal("shape mismatch must not compare equal")
	}
	nan := float32(math.NaN())
	d := FromSlice(1, 1, []float32{nan})
	e := FromSlice(1, 1, []float32{nan})
	if !d.Equal(e) || !d.AllClose(e, 0, 0) {
		t.Fatal("NaN should compare equal to NaN in both comparisons")
	}
}

func TestMaxDiff(t *testing.T) {
	a := FromSlice(1, 2, []float32{0, 10})
	b := FromSlice(1, 2, []float32{1, 7})
	if got := a.MaxDiff(b); got != 3 {
		t.Fatalf("MaxDiff = %v, want 3", got)
	}
	if a.MaxDiff(NewDense(2, 2)) != -1 {
		t.Fatal("shape mismatch should return -1")
	}
}

func TestTypedValidate(t *testing.T) {
	v := NewDense(5, 8)
	e := NewDense(12, 8)
	if err := Src(v).Validate(5, 12, 8); err != nil {
		t.Errorf("Src valid: %v", err)
	}
	if err := Edge(e).Validate(5, 12, 8); err != nil {
		t.Errorf("Edge valid: %v", err)
	}
	if err := NullTensor.Validate(5, 12, 8); err != nil {
		t.Errorf("Null valid: %v", err)
	}
	if err := Src(e).Validate(5, 12, 8); err == nil {
		t.Error("wrong row count should fail")
	}
	if err := Src(v).Validate(5, 12, 4); err == nil {
		t.Error("wrong col count should fail")
	}
	if err := (Typed{Kind: SrcV}).Validate(5, 12, 8); err == nil {
		t.Error("missing data should fail")
	}
	if err := (Typed{Kind: Null, T: v}).Validate(5, 12, 8); err == nil {
		t.Error("null with data should fail")
	}
}

func naiveMatMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		m, k, n := 1+rng.Intn(20), 1+rng.Intn(20), 1+rng.Intn(20)
		a, b := NewDense(m, k), NewDense(k, n)
		a.FillRandom(rng, 1)
		b.FillRandom(rng, 1)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if !got.AllClose(want, 1e-4, 1e-4) {
			t.Fatalf("trial %d: matmul mismatch, maxdiff %v", trial, got.MaxDiff(want))
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(NewDense(2, 3), NewDense(4, 2))
}

func TestActivationsAndBias(t *testing.T) {
	vectest.EachKernelSet(t, testActivationsAndBias)
}

func testActivationsAndBias(t *testing.T) {
	d := FromSlice(1, 4, []float32{-2, -0.5, 0, 3})
	LeakyReLU(d, 0.1)
	want := []float32{-0.2, -0.05, 0, 3}
	for i, w := range want {
		if math.Abs(float64(d.Data[i]-w)) > 1e-6 {
			t.Fatalf("LeakyReLU[%d] = %v, want %v", i, d.Data[i], w)
		}
	}
	ReLU(d)
	if d.Data[0] != 0 || d.Data[3] != 3 {
		t.Fatal("ReLU wrong")
	}
}

// Add returns a + b element-wise.
func Add(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: add shape mismatch")
	}
	out := NewDense(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

func TestExpAddConcat(t *testing.T) {
	a := FromSlice(2, 2, []float32{0, 1, 2, 3})
	b := FromSlice(2, 2, []float32{1, 1, 1, 1})
	s := Add(a, b)
	if s.At(1, 1) != 4 {
		t.Fatal("Add wrong")
	}
	e := a.Clone()
	Exp(e)
	if math.Abs(float64(e.At(0, 1))-math.E) > 1e-5 {
		t.Fatal("Exp wrong")
	}
	c := Concat(a, b)
	if c.Cols != 4 || c.At(0, 2) != 1 || c.At(1, 1) != 3 {
		t.Fatal("Concat wrong")
	}
}

// Property: matmul distributes over addition: (a+b)@c == a@c + b@c.
func TestQuickMatMulLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a, b, c := NewDense(m, k), NewDense(m, k), NewDense(k, n)
		a.FillRandom(r, 1)
		b.FillRandom(r, 1)
		c.FillRandom(r, 1)
		lhs := MatMul(Add(a, b), c)
		rhs := Add(MatMul(a, c), MatMul(b, c))
		return lhs.AllClose(rhs, 1e-4, 1e-3)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestGEMMFlops(t *testing.T) {
	if GEMMFlops(10, 20, 30) != 12000 {
		t.Fatal("GEMMFlops wrong")
	}
}

func TestBitDiff(t *testing.T) {
	nan := float32(math.NaN())
	a := FromSlice(1, 4, []float32{1, 0, nan, 1e-45})
	same := FromSlice(1, 4, []float32{1, 0, -nan, 1e-45})
	if i := a.BitDiff(same); i != -1 {
		t.Fatalf("NaNs of different sign differ at %d; any NaN must match any NaN", i)
	}
	negZero := FromSlice(1, 4, []float32{1, float32(math.Copysign(0, -1)), nan, 1e-45})
	if !a.Equal(negZero) || a.BitDiff(negZero) != 1 {
		t.Fatalf("-0 against +0: Equal=%v BitDiff=%d, want true and 1", a.Equal(negZero), a.BitDiff(negZero))
	}
	if i := a.BitDiff(FromSlice(2, 2, a.Data)); i != 0 {
		t.Fatalf("shape mismatch differs at %d, want 0", i)
	}
}

// TestElementwiseEqualsBranchyLoops: ReLU, LeakyReLU and AddScaledInto — the
// vector kernel plus the Go loop that finishes the tail, and the Go loop alone
// — give the bits of the loops they are specified as, `if v < 0 { ... }` and
// `a + s*b`, over lengths around the vector width and inputs laced with signed
// zeros, infinities, NaNs of both kinds and signs, and denormals. A NaN keeps
// its payload through the activations.
func TestElementwiseEqualsBranchyLoops(t *testing.T) {
	vectest.EachKernelSet(t, testElementwiseEqualsBranchyLoops)
}

func testElementwiseEqualsBranchyLoops(t *testing.T) {
	specials := []uint32{0, 0x80000000, 0x7F800000, 0xFF800000, 0x7FC00001, 0xFFC00001, 0x7FA00000, 0xFFA00000,
		1, 0x80000001, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF}
	rng := rand.New(rand.NewSource(29))
	fill := func(d *Dense) {
		d.FillRandom(rng, 2)
		for i := range d.Data {
			if rng.Intn(3) == 0 {
				d.Data[i] = math.Float32frombits(specials[rng.Intn(len(specials))])
			}
		}
	}
	exact := func(what string, got, want *Dense) {
		t.Helper()
		for i := range want.Data {
			if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]); g != w {
				t.Fatalf("%s (%d elements): element %d is %08x, the branchy loop gives %08x", what, len(want.Data), i, g, w)
			}
		}
	}
	const alpha, scale = -0.3, 1.3
	for n := 0; n <= 40; n++ {
		x, y := NewDense(1, n), NewDense(1, n)
		fill(x)
		fill(y)

		want, got := x.Clone(), x.Clone()
		for i, v := range want.Data {
			if v < 0 {
				want.Data[i] = 0
			}
		}
		ReLU(got)
		exact("ReLU", got, want)

		want, got = x.Clone(), x.Clone()
		for i, v := range want.Data {
			if v < 0 {
				want.Data[i] = alpha * v
			}
		}
		LeakyReLU(got, alpha)
		exact("LeakyReLU", got, want)

		want, got = NewDense(1, n), x.Clone()
		for i := range want.Data {
			want.Data[i] = x.Data[i] + float32(scale*y.Data[i])
		}
		AddScaledInto(got, got, y, scale) // in place, as the buffer planner aliases it
		if i := got.BitDiff(want); i >= 0 {
			t.Fatalf("AddScaledInto (%d elements): element %d = %v, the scalar loop gives %v", n, i, got.Data[i], want.Data[i])
		}
	}
}

// BenchmarkElementwise is the measurement behind program/dense.go's
// per-element cost constants (`make bench-kernels`): the three elementwise
// operators over Sage's hidden activations on PU (19717 x 256), dispatched
// and with the Go loops forced, on the inputs that decide a branch's cost —
// sign-random (behind a GEMM), all positive, and already rectified.
func BenchmarkElementwise(b *testing.B) {
	const rows, cols = 19717, 256
	rng := rand.New(rand.NewSource(5))
	inputs := []struct {
		name string
		prep func(d *Dense)
	}{
		{"sign-random", func(d *Dense) { d.FillRandom(rng, 1) }},
		{"positive", func(d *Dense) {
			for i := range d.Data {
				d.Data[i] = 0.5 + rng.Float32()
			}
		}},
		{"post-relu", func(d *Dense) { d.FillRandom(rng, 1); ReLU(d) }},
	}
	src, x, y := NewDense(rows, cols), NewDense(rows, cols), NewDense(rows, cols)
	wide := NewDense(rows, 2*cols)
	y.FillRandom(rng, 1)
	ops := []struct {
		name string
		run  func()
	}{
		// The activations run in place, so each iteration first restores the
		// input (the copy is timed with it: the "copy" rows give what to take off).
		{"copy", func() { copy(x.Data, src.Data) }},
		{"relu", func() { copy(x.Data, src.Data); ReLU(x) }},
		{"leaky-relu", func() { copy(x.Data, src.Data); LeakyReLU(x, 0.2) }},
		{"add-scaled", func() { AddScaledInto(x, src, y, 1.5) }},
		// Per element of the two inputs; it has no vector form of its own
		// (copy is already one), so both kernel sets read the same.
		{"concat", func() { ConcatInto(wide, src, y) }},
	}
	for _, in := range inputs {
		in.prep(src)
		for _, op := range ops {
			run := func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					op.run()
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(rows*cols), "ns/elem")
			}
			if vec.Enabled() {
				b.Run(in.name+"/"+op.name+"/"+vec.ISA(), run)
			}
			b.Run(in.name+"/"+op.name+"/generic", func(b *testing.B) {
				vec.ForceGeneric(b)
				run(b)
			})
		}
	}
}

// BenchmarkExp is the measurement behind program/dense.go's expNsPerElem
// (`make bench-kernels`): Exp in place over GAT's attention logits on PR
// (162088 edges x 8 heads), inputs spread over the range a leaky-relu leaves
// them in, dispatched and with the Go definition forced. Each iteration first
// restores the input; the "copy" row is what to take off.
func BenchmarkExp(b *testing.B) {
	const rows, cols = 162088, 8
	rng := rand.New(rand.NewSource(5))
	src, x := NewDense(rows, cols), NewDense(rows, cols)
	src.FillRandom(rng, 4)
	for _, op := range []struct {
		name string
		run  func()
	}{
		{"copy", func() { copy(x.Data, src.Data) }},
		{"exp", func() { copy(x.Data, src.Data); Exp(x) }},
	} {
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op.run()
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(rows*cols), "ns/elem")
		}
		if vec.Enabled() {
			b.Run(op.name+"/"+vec.ISA(), run)
		}
		b.Run(op.name+"/generic", func(b *testing.B) {
			vec.ForceGeneric(b)
			run(b)
		})
	}
}
