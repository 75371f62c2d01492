package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vec"
	"repro/internal/vec/vectest"
)

// Property: the blocked path must agree with the naive loop — and since the
// accumulation order is identical by construction, agree exactly — across
// odd shapes, transposed shape pairs, and the feature widths models use.
func TestGemmPackedMatchesNaive(t *testing.T) {
	shapes := [][3]int{ // {m, k, n}
		{1, 1, 1},
		{7, 13, 5}, {5, 13, 7}, // transposed pair
		{9, 3, 1}, {1, 3, 9}, // transposed pair, width-1 output
		{33, 17, 3}, {3, 17, 33},
		{64, 32, 32}, {50, 7, 8}, {8, 8, 128},
		{21, 128, 64}, {10, 16, 256},
		{11, 5, 8}, {12, 8, 9}, // exact panel and panel+1
	}
	rng := rand.New(rand.NewSource(7))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := NewDense(m, k)
			b := NewDense(k, n)
			a.FillRandom(rng, 1)
			b.FillRandom(rng, 1)
			// Sprinkle zeros so the zero-skip path is exercised.
			for i := 0; i < len(a.Data); i += 3 {
				a.Data[i] = 0
			}
			want := MatMul(a, b)
			vectest.EachKernelSet(t, func(t *testing.T) {
				got := NewDense(m, n)
				GemmPackedInto(got, a, PackB(b))
				if !got.Equal(want) {
					t.Fatalf("blocked GEMM diverges from naive: max diff %g (want bit-identical)", got.MaxDiff(want))
				}
				if !got.AllClose(want, 1e-4, 1e-4) {
					t.Fatalf("blocked GEMM outside 1e-4 of naive: max diff %g", got.MaxDiff(want))
				}
			})
		})
	}
}

// The model-relevant feature widths from the acceptance list, pinned
// explicitly: 1 (attention scalars), 3 (classes), 32 (GIN hidden), 128
// (fat embeddings).
func TestGemmPackedFeatureWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 3, 32, 128} {
		a := NewDense(37, 19)
		b := NewDense(19, n)
		a.FillRandom(rng, 1)
		b.FillRandom(rng, 1)
		want := MatMul(a, b)
		vectest.EachKernelSet(t, func(t *testing.T) {
			got := NewDense(37, n)
			GemmPackedInto(got, a, PackB(b))
			if !got.Equal(want) {
				t.Fatalf("width %d: blocked GEMM diverges, max diff %g", n, got.MaxDiff(want))
			}
		})
	}
}

// Row panels computed separately, in any order, reproduce the whole product
// bit for bit and write nothing outside their own rows; the RowRange views
// the elementwise splitters use alias the same rows.
func TestGemmPackedRowsMatchesWhole(t *testing.T) {
	vectest.EachKernelSet(t, testGemmPackedRowsMatchesWhole)
}

func testGemmPackedRowsMatchesWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewDense(37, 19)
	b := NewDense(19, 11)
	a.FillRandom(rng, 1)
	b.FillRandom(rng, 1)
	pb := PackB(b)
	want := NewDense(37, 11)
	GemmPackedInto(want, a, pb)

	const sentinel = -12345
	got := NewDense(37, 11)
	for i := range got.Data {
		got.Data[i] = sentinel
	}
	GemmPackedRowsInto(got, a, pb, 20, 37)
	GemmPackedRowsInto(got, a, pb, 5, 5) // empty range: no-op
	for _, v := range got.RowRange(0, 20).Data {
		if v != sentinel {
			t.Fatal("row panel [20,37) wrote outside its rows")
		}
	}
	GemmPackedRowsInto(got, a, pb, 7, 20)
	GemmPackedRowsInto(got, a, pb, 0, 7)
	if !got.Equal(want) {
		t.Fatalf("row panels diverge from the whole product: max diff %g (want bit-identical)", got.MaxDiff(want))
	}

	v := got.RowRange(7, 9)
	if v.Rows != 2 || v.Cols != 11 || &v.Data[0] != &got.Row(7)[0] || len(v.Data) != 22 {
		t.Fatalf("RowRange(7,9) = %dx%d over %d floats, want a 2x11 view of row 7 on", v.Rows, v.Cols, len(v.Data))
	}

	defer func() {
		if recover() == nil {
			t.Fatal("row range past the last row did not panic")
		}
	}()
	GemmPackedRowsInto(got, a, pb, 30, 38)
}

func TestPackBShapes(t *testing.T) {
	b := NewDense(5, 11) // two panels: 8 + 3 (padded)
	for i := range b.Data {
		b.Data[i] = float32(i)
	}
	pb := PackB(b)
	if pb.K != 5 || pb.N != 11 {
		t.Fatalf("packed dims %dx%d, want 5x11", pb.K, pb.N)
	}
	if got, want := pb.PackedFloats(), 2*5*8; got != want {
		t.Fatalf("packed floats %d, want %d", got, want)
	}
	// Panel 0, k=2 must hold b[2][0..7]; panel 1, k=2 holds b[2][8..10] + 0s.
	for j := 0; j < 8; j++ {
		if pb.panels[2*8+j] != b.At(2, j) {
			t.Fatalf("panel 0 k=2 lane %d = %g, want %g", j, pb.panels[2*8+j], b.At(2, j))
		}
	}
	base := 5 * 8 // panel 1
	for j := 0; j < 3; j++ {
		if pb.panels[base+2*8+j] != b.At(2, 8+j) {
			t.Fatalf("panel 1 k=2 lane %d mismatch", j)
		}
	}
	for j := 3; j < 8; j++ {
		if pb.panels[base+2*8+j] != 0 {
			t.Fatalf("panel 1 padding lane %d = %g, want 0", j, pb.panels[base+2*8+j])
		}
	}
}

func TestGemmPackedShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	a := NewDense(3, 4)
	b := NewDense(5, 6) // K mismatch
	GemmPackedInto(NewDense(3, 6), a, PackB(b))
}

// BenchmarkGemm compares the naive row loop against the packed-panel kernel
// on the GEMM shapes the models actually run: Sage's wide hidden transform
// and GCN's narrower layers.
func BenchmarkGemm(b *testing.B) {
	shapes := [][3]int{
		{4096, 256, 256}, // Sage hidden x hidden
		{4096, 512, 256}, // Sage concat input
		{4096, 64, 16},   // GCN-ish narrow layer
	}
	rng := rand.New(rand.NewSource(3))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := NewDense(m, k)
		w := NewDense(k, n)
		a.FillRandom(rng, 1)
		w.FillRandom(rng, 1)
		out := NewDense(m, n)
		b.Run(fmt.Sprintf("naive/%dx%dx%d", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out.Zero()
				matMulAdd(out, a, w)
			}
		})
		pb := PackB(w)
		b.Run(fmt.Sprintf("blocked/%dx%dx%d", m, k, n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmPackedInto(out, a, pb)
			}
		})
	}
}

// offsetDense is a rows x cols tensor whose storage starts off floats into
// its allocation, so that it is 4-byte but not 32-byte aligned.
func offsetDense(rows, cols, off int) *Dense {
	return FromSlice(rows, cols, make([]float32, off+rows*cols)[off:])
}

// TestGemmVectorEqualsGo: over K from 0 to 512, widths with whole panels,
// blocks of four, leftovers and a tail panel, row counts around the four-row
// group and the row tile, inputs that are dense, half zeros, and laced with
// NaN, infinities, signed zeros and denormals, finite and non-finite weights,
// storage at odd element offsets and interior row ranges, the dispatched
// kernel writes exactly the bits of the Go loop and nothing outside its rows.
func TestGemmVectorEqualsGo(t *testing.T) {
	if !vec.Enabled() {
		t.Skip("no vector kernels on this CPU: GemmPackedRowsInto is the Go loop")
	}
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{nan, inf, -inf, 0, negZero, math.SmallestNonzeroFloat32, -1e-40, math.MaxFloat32, -math.MaxFloat32}
	rng := rand.New(rand.NewSource(17))
	lace := func(d *Dense, every int) {
		for i := rng.Intn(every); i < len(d.Data); i += 1 + rng.Intn(2*every) {
			d.Data[i] = specials[rng.Intn(len(specials))]
		}
	}
	const sentinel = -54321
	cases := 0
	for _, k := range []int{0, 1, 7, 64, 512} {
		for _, n := range []int{1, 5, 8, 12, 16, 24, 32, 37, 40, 64, 256, 259} {
			for _, m := range []int{1, 3, 4, 6, 67} {
				if k == 512 && n > 64 && m > 6 && testing.Short() {
					continue
				}
				for _, fill := range []string{"dense", "half zeros", "special A", "non-finite B"} {
					off := 1 + 2*(cases%2) // 1 or 3 floats: never 8-byte aligned
					cases++
					a := offsetDense(m, k, off)
					b := NewDense(k, n)
					a.FillRandom(rng, 1)
					b.FillRandom(rng, 1)
					switch fill {
					case "half zeros":
						for i := range a.Data {
							if rng.Intn(2) == 0 {
								a.Data[i] = 0
							}
						}
					case "special A":
						lace(a, 5)
					case "non-finite B":
						lace(a, 9) // zeros in A against NaN/Inf in B: the skip decides the result
						lace(b, 7)
						if k > 0 {
							b.Data[rng.Intn(len(b.Data))] = specials[rng.Intn(3)]
						}
					}
					pb := PackB(b)
					if k > 0 && pb.finite != (fill != "non-finite B") {
						t.Fatalf("k=%d n=%d %s: PackB recorded finite=%v", k, n, fill, pb.finite)
					}
					pb.panels = append(make([]float32, off), pb.panels...)[off:]
					ranges := [][2]int{{0, m}}
					if m >= 3 {
						ranges = append(ranges, [2]int{1, m - 1})
					}
					for _, r := range ranges {
						want, got := offsetDense(m, n, off), offsetDense(m, n, off)
						want.Fill(sentinel)
						got.Fill(sentinel)
						gemmPackedRowsGo(want, a, pb, r[0], r[1], 0, false)
						GemmPackedRowsInto(got, a, pb, r[0], r[1])
						if i := got.BitDiff(want); i >= 0 {
							t.Fatalf("m=%d k=%d n=%d %s rows [%d,%d): element %d = %v (%#x), Go loop %v (%#x)",
								m, k, n, fill, r[0], r[1], i, got.Data[i], math.Float32bits(got.Data[i]),
								want.Data[i], math.Float32bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
}

// TestGemmAccumulateEqualsConcat: x @ W[:Fx] followed by the accumulating
// y @ W[Fx:] leaves, in every element, the bits of [x | y] @ W — one add
// chain in ascending k either way — at the models' layer shapes and at widths
// that are not whole panels, on dense and rectified inputs, in row ranges,
// with each kernel set, and when a weight half holds a NaN or an infinity and
// so runs the zero-skipping Go loop while the other half may not.
func TestGemmAccumulateEqualsConcat(t *testing.T) {
	vectest.EachKernelSet(t, testGemmAccumulateEqualsConcat)
}

func testGemmAccumulateEqualsConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []struct{ m, fx, fy, n int }{
		{67, 32, 32, 256}, // Sage layer 1 at 32 input features
		{67, 256, 256, 8}, // Sage layer 2, 8 classes
		{33, 12, 12, 5},   // the test models' widths: less than a panel
		{9, 7, 3, 13},     // unequal halves, a panel and a tail
		{5, 1, 40, 37},
		{3, 16, 16, 64}, // fewer rows than a four-row group
	}
	for _, s := range shapes {
		for _, fill := range []string{"dense", "rectified", "non-finite top", "non-finite bottom"} {
			x, y, w := NewDense(s.m, s.fx), NewDense(s.m, s.fy), NewDense(s.fx+s.fy, s.n)
			x.FillRandom(rng, 1)
			y.FillRandom(rng, 1)
			w.FillRandom(rng, 1)
			switch fill {
			case "rectified":
				ReLU(x)
				ReLU(y)
			case "non-finite top":
				ReLU(x) // zeros against the NaN: the skip decides the result
				w.Data[rng.Intn(s.fx*s.n)] = float32(math.NaN())
			case "non-finite bottom":
				ReLU(y)
				w.Data[s.fx*s.n+rng.Intn(s.fy*s.n)] = float32(math.Inf(-1))
			}
			cat := NewDense(s.m, s.fx+s.fy)
			ConcatInto(cat, x, y)
			want := NewDense(s.m, s.n)
			GemmPackedInto(want, cat, PackB(w))

			top, bottom := w.RowRange(0, s.fx), w.RowRange(s.fx, s.fx+s.fy)
			pbTop, pbBottom := PackB(&top), PackB(&bottom)
			got := NewDense(s.m, s.n)
			for _, r := range [][2]int{{s.m / 2, s.m}, {0, s.m / 2}} {
				GemmPackedRowsInto(got, x, pbTop, r[0], r[1])
				GemmPackedRowsAccInto(got, y, pbBottom, r[0], r[1])
			}
			if i := got.BitDiff(want); i >= 0 {
				t.Fatalf("%dx(%d+%d)x%d %s: element %d = %v (%#x), the concatenated GEMM gives %v (%#x)",
					s.m, s.fx, s.fy, s.n, fill, i, got.Data[i], math.Float32bits(got.Data[i]),
					want.Data[i], math.Float32bits(want.Data[i]))
			}
		}
	}
}

// BenchmarkGemmPacked times the packed GEMM at the shapes the six models run
// on the benchmark's graphs at 32 input features and 8 classes (`make
// bench-kernels`) — GCN's two layers on AR, GAT's projection and attention
// GEMMs and GIN's hidden layer on PR, the three Sage variants' two layers on
// PU — as dispatched and with the Go loop forced. Half of A is zero for the
// layers that follow a ReLU, as in a real pass. program.gemmNsPerFlop's two
// values are its ns/flop column.
func BenchmarkGemmPacked(b *testing.B) {
	shapes := []struct {
		name    string
		m, k, n int
		relu    bool
	}{
		{"GCN-L1/AR", 50515, 32, 16, false},
		{"GCN-L2/AR", 50515, 16, 8, true},
		{"GAT-xw/PR", 43466, 32, 64, false},
		{"GAT-attn/PR", 43466, 64, 8, false},
		{"GIN-mlp/PR", 43466, 64, 64, true},
		{"Sage-L1/PU", 19717, 64, 256, false},
		{"Sage-L2/PU", 19717, 512, 8, true},
	}
	rng := rand.New(rand.NewSource(3))
	for _, s := range shapes {
		a := NewDense(s.m, s.k)
		w := NewDense(s.k, s.n)
		a.FillRandom(rng, 1)
		w.FillRandom(rng, 1)
		if s.relu {
			ReLU(a)
		}
		out := NewDense(s.m, s.n)
		pb := PackB(w)
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemmPackedInto(out, a, pb)
			}
			b.ReportMetric(float64(GEMMFlops(s.m, s.k, s.n))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(GEMMFlops(s.m, s.k, s.n)), "ns/flop")
		}
		name := fmt.Sprintf("%s/%dx%dx%d", s.name, s.m, s.k, s.n)
		if vec.Enabled() {
			b.Run(name+"/"+vec.ISA(), run)
		}
		b.Run(name+"/generic", func(b *testing.B) {
			vec.ForceGeneric(b)
			run(b)
		})
	}
}
