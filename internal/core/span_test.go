package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/vec"
	"repro/internal/vec/vectest"
)

// perEdgeOracle is the loop the span kernels replaced, kept as their oracle
// and as the micro-benchmark's baseline: one selector closure per operand,
// three indirect calls per edge (select A, select B, fold the row), the
// output row read and written once per edge. Rows reduce in ascending
// in-edge order, which is what makes "bit-identical" a meaningful demand.
func perEdgeOracle(g *graph.Graph, op ops.OpInfo, o Operands) {
	sel := func(t tensor.Typed) func(e, u, v int32) []float32 {
		if t.Kind == tensor.Null {
			return func(e, u, v int32) []float32 { return nil }
		}
		d, c := t.T.Data, t.T.Cols
		switch t.Kind {
		case tensor.SrcV:
			return func(e, u, v int32) []float32 { return d[int(u)*c : int(u)*c+c] }
		case tensor.DstV:
			return func(e, u, v int32) []float32 { return d[int(v)*c : int(v)*c+c] }
		default:
			return func(e, u, v int32) []float32 { return d[int(e)*c : int(e)*c+c] }
		}
	}
	pickA, pickB := sel(o.A), sel(o.B)
	fold := rowKernelFor(op.EdgeOp, op.GatherOp)
	out := o.C.T
	identity := op.GatherOp.Identity()
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		row := out.Row(int(v))
		srcs, eids := g.InEdges(v)
		if len(eids) == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		for j := range row {
			row[j] = identity
		}
		for i, e := range eids {
			fold(row, pickA(e, srcs[i], v), pickB(e, srcs[i], v))
		}
		if op.GatherOp == ops.GatherMean {
			inv := 1 / float32(len(eids))
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// skewedFixture has half its edges landing on eight hub vertices and the
// last quarter of its vertices with no in-edges at all.
func skewedFixture(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 240
	rng := rand.New(rand.NewSource(9))
	b := graph.NewBuilder(n)
	for i := 0; i < 1600; i++ {
		dst := int32(rng.Intn(n * 3 / 4))
		if i%2 == 0 {
			dst = int32(rng.Intn(8))
		}
		b.AddEdge(int32(rng.Intn(n)), dst)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.InDegree(n-1) != 0 {
		t.Fatal("fixture lost its zero-degree rows")
	}
	return g
}

// starFixture sends every edge to vertex 0: one row holds all the work, so
// no split of the row range can balance it.
func starFixture(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 160
	b := graph.NewBuilder(n)
	for rep := 0; rep < 3; rep++ {
		for u := int32(1); u < n; u++ {
			b.AddEdge(u, 0)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// shapedOperands allocates op's inputs with the given widths (ignored for an
// absent operand) bounded away from zero, and a feat-wide output.
func shapedOperands(g *graph.Graph, op ops.OpInfo, feat, aCols, bCols int, seed int64) Operands {
	rng := rand.New(rand.NewSource(seed))
	alloc := func(kind tensor.Kind, cols int) tensor.Typed {
		if kind == tensor.Null {
			return tensor.NullTensor
		}
		rows := g.NumVertices()
		if kind == tensor.EdgeK {
			rows = g.NumEdges()
		}
		d := tensor.NewDense(rows, cols)
		for i := range d.Data {
			d.Data[i] = 0.5 + rng.Float32()
			if rng.Intn(4) == 0 {
				d.Data[i] = -d.Data[i]
			}
		}
		return tensor.Typed{Kind: kind, T: d}
	}
	o := Operands{A: alloc(op.AKind, aCols), B: alloc(op.BKind, bCols)}
	o.C = tensor.Typed{Kind: op.CKind, T: tensor.NewDense(g.NumVertices(), feat)}
	return o
}

// reducingOps lists the registry's distinct reducing operators (DGL's dot
// shares mul's descriptor).
func reducingOps() []ops.OpInfo {
	seen := map[ops.OpInfo]bool{}
	var out []ops.OpInfo
	for _, entry := range ops.Registry() {
		op := entry.Info
		op.Name = ""
		if op.CKind != tensor.DstV || seen[op] {
			continue
		}
		seen[op] = true
		out = append(out, op)
	}
	return out
}

// sameFunc reports whether two span kernels are the same function.
func sameFunc(a, b spanFn) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// runForced lowers op for o on a flat or sharded parallel backend, forces
// the fan-out to workers (the fixtures sit below the small-work cutoff) and
// runs it once.
func runForced(t *testing.T, g *graph.Graph, op ops.OpInfo, strat Strategy, o Operands, workers, shards int) {
	t.Helper()
	p := MustCompile(op, Schedule{Strategy: strat, Group: 1, Tile: 1})
	k, err := NewShardedParallelBackend(workers, shards).Lower(p, g, o)
	if err != nil {
		t.Fatalf("%s/%s: lower: %v", op, strat, err)
	}
	k.(*parallelKernel).fanout = workers
	if err := k.Run(); err != nil {
		t.Fatalf("%s/%s: run: %v", op, strat, err)
	}
}

// TestSpanKernelsBitIdentical: every reducing operator of the registry, at
// widths below the block width (in-place only), at multiples of it and with a
// sub-block tail, with each present operand broadcast or full, produces exactly
// the per-edge loop's bits — on one worker or several, under every strategy
// the plan may name, flat or sharded — with the vector kernels under the
// blocked forms and with the Go loops alone.
func TestSpanKernelsBitIdentical(t *testing.T) {
	vectest.EachKernelSet(t, testSpanKernelsBitIdentical)
}

func testSpanKernelsBitIdentical(t *testing.T) {
	fixtures := []struct {
		name string
		g    *graph.Graph
	}{{"skewed", skewedFixture(t)}, {"star", starFixture(t)}}
	widths := []int{1, 3, 8, 16, 20, 32, 64}
	if raceBuild {
		// A tail-only width, a blocked width with a tail, an in-place width:
		// every code path, a third of the instrumented work.
		widths = []int{3, 20, 40}
	}
	blocked := 0
	for _, op := range reducingOps() {
		for _, feat := range widths {
			aShapes, bShapes := []int{feat}, []int{feat}
			if feat > 1 {
				aShapes, bShapes = []int{1, feat}, []int{1, feat}
			}
			if op.AKind == tensor.Null {
				aShapes = []int{0}
			}
			if op.BKind == tensor.Null {
				bShapes = []int{0}
			}
			for _, aCols := range aShapes {
				for _, bCols := range bShapes {
					for _, fx := range fixtures {
						g := fx.g
						name := fmt.Sprintf("%s feat=%d a=%d b=%d %s", op, feat, aCols, bCols, fx.name)
						want := shapedOperands(g, op, feat, aCols, bCols, 3)
						if r, err := lowerRowReducer(op, want, feat); err != nil {
							t.Fatalf("%s: %v", name, err)
						} else if !sameFunc(r.span, spanInPlace) {
							blocked++
						} else if vec.Enabled() {
							// Only the blocked forms have vector kernels under them; the
							// in-place cases are the generic pass's.
							continue
						}
						perEdgeOracle(g, op, want)
						check := func(strat Strategy, workers, shards int) {
							got := want // the inputs are only read; the output is fresh
							got.C.T = tensor.NewDense(g.NumVertices(), feat)
							runForced(t, g, op, strat, got, workers, shards)
							if !got.C.T.Equal(want.C.T) {
								t.Fatalf("%s: %s workers=%d shards=%d differs from the per-edge loop (maxdiff %v)",
									name, strat, workers, shards, got.C.T.MaxDiff(want.C.T))
							}
						}
						// The flat kernel walks rows whatever the strategy, so the
						// four strategies ride on the worker counts.
						for i, workers := range []int{1, 2, 4, 2} {
							check(Strategies[i], workers, 1)
						}
						check(ThreadVertex, 2, 3)
						check(WarpEdge, 2, 3)
					}
				}
			}
		}
	}
	if blocked == 0 {
		t.Fatal("no case took a blocked kernel")
	}
}

// TestSpanConventions pins the two conventions every form must share: an
// empty reduction yields 0 (not the gather identity), and mean divides the
// sum by the in-degree.
func TestSpanConventions(t *testing.T) {
	vectest.EachKernelSet(t, testSpanConventions)
}

func testSpanConventions(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	b.AddEdge(3, 1)
	b.AddEdge(1, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, feat := range []int{3, 8, 40} {
		for _, gop := range []ops.GatherOp{ops.GatherSum, ops.GatherMean, ops.GatherMax, ops.GatherMin} {
			op := ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: gop, AKind: tensor.SrcV, CKind: tensor.DstV}
			o := shapedOperands(g, op, feat, feat, 0, 1)
			x := o.A.T
			for i := range x.Data {
				x.Data[i] = float32(i%7) - 2
			}
			o.C.T.Fill(99)
			runForced(t, g, op, ThreadEdge, o, 2, 1)
			for j := 0; j < feat; j++ {
				if got := o.C.T.At(0, j); got != 0 {
					t.Fatalf("%s feat=%d: zero-degree row holds %v, want 0", gop, feat, got)
				}
				a, b, c := x.At(0, j), x.At(2, j), x.At(3, j)
				var want float32
				switch gop {
				case ops.GatherSum:
					want = a + b + c
				case ops.GatherMean:
					want = (a + b + c) * (1 / float32(3))
				case ops.GatherMax:
					want = max(a, b, c)
				case ops.GatherMin:
					want = min(a, b, c)
				}
				if got := o.C.T.At(1, j); got != want {
					t.Fatalf("%s feat=%d col %d: got %v, want %v", gop, feat, j, got, want)
				}
			}
		}
	}
}

// vectorOps are the operator shapes with a vector kernel under their blocked
// form: copy_u / copy_e under sum, mean, max and min, and u_mul_e.sum with a
// scalar edge weight (either operand may be the scalar).
var vectorOps = []struct {
	name    string
	op      ops.OpInfo
	scalarB bool
}{
	{"copy_u.sum", ops.AggrSum, false},
	{"copy_u.mean", ops.AggrMean, false},
	{"copy_u.max", ops.AggrMax, false},
	{"copy_u.min", ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherMin, AKind: tensor.SrcV, CKind: tensor.DstV}, false},
	{"copy_e.sum", ops.CopyESum, false},
	{"u_mul_e.sum", ops.WeightedAggrSum, true},
}

// TestSpanVectorEqualsGo: every operator shape with a vector kernel, at the
// kernels' pass widths, chains of them and sub-8 tails, over zero-degree,
// hub and star rows, with NaN, infinities, signed zeros and denormals laced
// through the operands and operand storage at odd element offsets, gives
// bit for bit what the per-edge loop gives — as dispatched and with the Go
// loops forced — on one worker and on three.
func TestSpanVectorEqualsGo(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	specials := []float32{nan, inf, -inf, 0, negZero, math.SmallestNonzeroFloat32, -1e-40, math.MaxFloat32, -math.MaxFloat32}
	widths := []int{8, 11, 16, 24, 32, 35, 40, 64, 256}
	if raceBuild {
		widths = []int{11, 16, 40}
	}
	fixtures := []struct {
		name string
		g    *graph.Graph
	}{{"skewed", skewedFixture(t)}, {"star", starFixture(t)}}
	for _, fx := range fixtures {
		g := fx.g
		for _, vo := range vectorOps {
			for wi, feat := range widths {
				rng := rand.New(rand.NewSource(int64(feat)))
				bCols := feat
				if vo.scalarB {
					bCols = 1
				}
				want := shapedOperands(g, vo.op, feat, feat, bCols, 7)
				for _, operand := range []*tensor.Typed{&want.A, &want.B} {
					if operand.Kind == tensor.Null {
						continue
					}
					// Move the storage 1 or 3 floats off its allocation's alignment
					// and lace it with specials, about one element in six.
					d := operand.T
					off := 1 + 2*(wi%2)
					moved := tensor.FromSlice(d.Rows, d.Cols, append(make([]float32, off), d.Data...)[off:])
					for i := rng.Intn(6); i < len(moved.Data); i += 1 + rng.Intn(12) {
						moved.Data[i] = specials[rng.Intn(len(specials))]
					}
					operand.T = moved
				}
				perEdgeOracle(g, vo.op, want)
				vectest.EachKernelSet(t, func(t *testing.T) {
					// One call for all rows and one call per row: the same bits,
					// NaN payloads included.
					r, err := lowerRowReducer(vo.op, want, feat)
					if err != nil {
						t.Fatal(err)
					}
					rowsPerCall, perRow := tensor.NewDense(g.NumVertices(), feat), tensor.NewDense(g.NumVertices(), feat)
					r.reduceRows(rowsPerCall, g, 0, int32(g.NumVertices()))
					r.spans = false
					r.reduceRows(perRow, g, 0, int32(g.NumVertices()))
					for i, v := range rowsPerCall.Data {
						if math.Float32bits(v) != math.Float32bits(perRow.Data[i]) {
							t.Fatalf("%s feat=%d %s: row %d col %d is %#x in one call for all rows, %#x at a call per row",
								vo.name, feat, fx.name, i/feat, i%feat, math.Float32bits(v), math.Float32bits(perRow.Data[i]))
						}
					}
					for _, workers := range []int{1, 3} {
						got := want
						got.C.T = tensor.NewDense(g.NumVertices(), feat)
						got.C.T.Fill(-777)
						runForced(t, g, vo.op, ThreadVertex, got, workers, 1)
						if i := got.C.T.BitDiff(want.C.T); i >= 0 {
							t.Fatalf("%s feat=%d %s workers=%d: row %d col %d = %v (%#x), per-edge loop %v (%#x)",
								vo.name, feat, fx.name, workers, i/feat, i%feat,
								got.C.T.Data[i], math.Float32bits(got.C.T.Data[i]),
								want.C.T.Data[i], math.Float32bits(want.C.T.Data[i]))
						}
					}
				})
			}
		}
	}
}

// TestSpanCorruptIndexIsKernelError: an in-edge whose source or edge id
// points outside the operand — past the end or negative, as a corrupted CSR
// would — ends the run in a *KernelError carrying Go's own bounds panic,
// word for word the same with the vector kernels (which check every index
// before using it and hand the row back to the Go loop) as without, on the
// caller and on a pool helper. The process never reads through the index.
func TestSpanCorruptIndexIsKernelError(t *testing.T) {
	for _, vo := range vectorOps {
		for _, feat := range []int{8, 32, 43} {
			for _, bad := range []int32{1 << 20, -1, math.MinInt32} {
				for _, workers := range []int{1, 2} {
					// A private graph per case: the corruption is in its CSR.
					g := testGraph(t, 300, 2400, 11)
					bCols := feat
					if vo.scalarB {
						bCols = 1
					}
					o := shapedOperands(g, vo.op, feat, feat, bCols, 3)
					p := MustCompile(vo.op, Schedule{Strategy: ThreadVertex, Group: 1, Tile: 1})
					k, err := NewShardedParallelBackend(workers, 1).Lower(p, g, o)
					if err != nil {
						t.Fatal(err)
					}
					k.(*parallelKernel).fanout = workers
					// Corrupt one slot in the middle of a row's in-edge list: the
					// index array the full-width operand is gathered through, or the
					// scalar operand's for the weighted sum's second variant.
					slot := int(g.InPtr()[40]) + 1
					col := g.InSrcs()
					if vo.op.AKind == tensor.Null || (vo.scalarB && bad == -1) {
						col = g.InEdgeIDs()
					}
					col[slot] = bad
					var msgs []string
					vectest.EachKernelSet(t, func(t *testing.T) {
						err := k.Run()
						var ke *KernelError
						if !errors.As(err, &ke) {
							t.Fatalf("%s feat=%d index %d workers=%d: err = %v, want a *KernelError", vo.name, feat, bad, workers, err)
						}
						var re interface{ RuntimeError() }
						if !errors.As(ke.Err, &re) || !strings.Contains(ke.Err.Error(), "out of range") {
							t.Fatalf("%s feat=%d index %d: recovered %v, want Go's bounds panic", vo.name, feat, bad, ke.Err)
						}
						msgs = append(msgs, ke.Err.Error())
					})
					if vec.Enabled() && msgs[0] != msgs[1] {
						t.Errorf("%s feat=%d index %d: vector path recovered %q, Go loops %q", vo.name, feat, bad, msgs[0], msgs[1])
					}
				}
			}
		}
	}
}

// TestSpanCorruptRowPointerIsKernelError: a row pointer that runs backwards
// or past the in-edge arrays, as a corrupted CSR would, stops the multi-row
// kernel at that row, and the per-row loop resuming there raises Go's own
// slice panic — the same *KernelError text with and without the kernels.
func TestSpanCorruptRowPointerIsKernelError(t *testing.T) {
	for _, vo := range vectorOps {
		for _, corrupt := range []string{"backwards", "past the end"} {
			g := testGraph(t, 300, 2400, 11)
			o := shapedOperands(g, vo.op, 32, 32, map[bool]int{true: 1, false: 32}[vo.scalarB], 3)
			p := MustCompile(vo.op, Schedule{Strategy: ThreadVertex, Group: 1, Tile: 1})
			k, err := NewShardedParallelBackend(1, 1).Lower(p, g, o)
			if err != nil {
				t.Fatal(err)
			}
			inPtr := g.InPtr()
			inPtr[41] = inPtr[40] - 1
			if corrupt == "past the end" {
				inPtr[41] = int32(g.NumEdges() + 5)
			}
			var msgs []string
			vectest.EachKernelSet(t, func(t *testing.T) {
				var ke *KernelError
				if err := k.Run(); !errors.As(err, &ke) || !strings.Contains(ke.Err.Error(), "out of range") {
					t.Fatalf("%s, row pointer %s: err = %v, want a *KernelError with Go's bounds panic", vo.name, corrupt, err)
				}
				msgs = append(msgs, ke.Err.Error())
			})
			if vec.Enabled() && msgs[0] != msgs[1] {
				t.Errorf("%s, row pointer %s: vector path recovered %q, Go loops %q", vo.name, corrupt, msgs[0], msgs[1])
			}
		}
	}
}

// TestEdgeWriterMatchesReference: every edge-output operator of the registry
// at broadcast and full operand widths matches the reference interpreter
// exactly (one rounding per element either way), on one worker or several.
func TestEdgeWriterMatchesReference(t *testing.T) {
	g := skewedFixture(t)
	seen := map[ops.OpInfo]bool{}
	for _, entry := range ops.Registry() {
		op := entry.Info
		op.Name = ""
		if op.CKind != tensor.EdgeK || seen[op] {
			continue
		}
		seen[op] = true
		for _, feat := range []int{1, 8, 20} {
			for _, bCols := range []int{1, feat} {
				mk := func() Operands {
					o := shapedOperands(g, op, feat, feat, bCols, 5)
					o.C.T = tensor.NewDense(g.NumEdges(), feat)
					return o
				}
				want := mk()
				if err := Reference(g, op, want); err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{1, 3} {
					got := mk()
					runForced(t, g, op, ThreadEdge, got, workers, 1)
					if !got.C.T.Equal(want.C.T) {
						t.Fatalf("%s feat=%d b=%d workers=%d differs from reference (maxdiff %v)",
							op, feat, bCols, workers, got.C.T.MaxDiff(want.C.T))
					}
				}
			}
		}
	}
}

// binaryEdgeOps is every full-width binary edge-output operator shape: the
// four arithmetic operators over every pair of operand kinds.
func binaryEdgeOps() []ops.OpInfo {
	var out []ops.OpInfo
	kinds := []tensor.Kind{tensor.SrcV, tensor.DstV, tensor.EdgeK}
	for _, eop := range []ops.EdgeOp{ops.EdgeAdd, ops.EdgeSub, ops.EdgeMul, ops.EdgeDiv} {
		for _, a := range kinds {
			for _, b := range kinds {
				out = append(out, ops.OpInfo{EdgeOp: eop, GatherOp: ops.GatherCopyRHS, AKind: a, BKind: b, CKind: tensor.EdgeK})
			}
		}
	}
	return out
}

// TestEdgeWriterVectorEqualsGo: every operand-kind x operator x width cell of
// the edge writer's vector form — and the widths it leaves to the Go loop —
// gives the reference interpreter's bits on operands laced with signed zeros,
// infinities, NaNs and denormals, with the kernels and without, on one worker
// or several.
func TestEdgeWriterVectorEqualsGo(t *testing.T) {
	g := skewedFixture(t)
	rng := rand.New(rand.NewSource(17))
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.NaN()), math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32}
	for _, op := range binaryEdgeOps() {
		for _, feat := range []int{8, 16, 20, 64} {
			mk := func() Operands {
				o := shapedOperands(g, op, feat, feat, feat, 5)
				o.C.T = tensor.NewDense(g.NumEdges(), feat)
				return o
			}
			want := mk()
			for _, d := range []*tensor.Dense{want.A.T, want.B.T} {
				for i := rng.Intn(6); i < len(d.Data); i += 1 + rng.Intn(12) {
					d.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			if err := Reference(g, op, want); err != nil {
				t.Fatal(err)
			}
			vectest.EachKernelSet(t, func(t *testing.T) {
				for _, workers := range []int{1, 3} {
					got := want
					got.C.T = tensor.NewDense(g.NumEdges(), feat)
					got.C.T.Fill(-777)
					runForced(t, g, op, ThreadEdge, got, workers, 1)
					if i := got.C.T.BitDiff(want.C.T); i >= 0 {
						t.Fatalf("%s feat=%d workers=%d: edge %d col %d = %v (%#x), reference %v (%#x)",
							op, feat, workers, i/feat, i%feat,
							got.C.T.Data[i], math.Float32bits(got.C.T.Data[i]),
							want.C.T.Data[i], math.Float32bits(want.C.T.Data[i]))
					}
				}
			})
		}
	}
}

// TestEdgeWriterCorruptIndexIsKernelError: an edge whose endpoint points
// outside a vertex operand ends the run in a *KernelError carrying Go's own
// bounds panic, word for word the same with the vector kernel (which checks
// the index, stops, and hands that edge to the Go loop) as without.
func TestEdgeWriterCorruptIndexIsKernelError(t *testing.T) {
	op := ops.OpInfo{EdgeOp: ops.EdgeAdd, GatherOp: ops.GatherCopyRHS, AKind: tensor.SrcV, BKind: tensor.DstV, CKind: tensor.EdgeK}
	for _, feat := range []int{8, 64} {
		for _, bad := range []int32{1 << 20, -1, math.MinInt32} {
			for _, workers := range []int{1, 2} {
				for _, dstSide := range []bool{false, true} {
					// A private graph per case: the corruption is in its COO arrays.
					g := testGraph(t, 300, 2400, 11)
					o := shapedOperands(g, op, feat, feat, feat, 3)
					o.C.T = tensor.NewDense(g.NumEdges(), feat)
					k, err := NewShardedParallelBackend(workers, 1).Lower(MustCompile(op, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1}), g, o)
					if err != nil {
						t.Fatal(err)
					}
					k.(*parallelKernel).fanout = workers
					col := g.EdgeSrcs()
					if dstSide {
						col = g.EdgeDsts()
					}
					col[1201] = bad
					var msgs []string
					vectest.EachKernelSet(t, func(t *testing.T) {
						err := k.Run()
						var ke *KernelError
						if !errors.As(err, &ke) {
							t.Fatalf("feat=%d index %d workers=%d: err = %v, want a *KernelError", feat, bad, workers, err)
						}
						var re interface{ RuntimeError() }
						if !errors.As(ke.Err, &re) || !strings.Contains(ke.Err.Error(), "out of range") {
							t.Fatalf("feat=%d index %d: recovered %v, want Go's bounds panic", feat, bad, ke.Err)
						}
						msgs = append(msgs, ke.Err.Error())
					})
					if vec.Enabled() && msgs[0] != msgs[1] {
						t.Errorf("feat=%d index %d: vector path recovered %q, Go loops %q", feat, bad, msgs[0], msgs[1])
					}
				}
			}
		}
	}
}

// TestEpilogueRunsInChunk: a bound epilogue sees every output row exactly
// once, from the chunk (or shard) that produced it, on the flat row walk, the
// flat edge walk and both sharded shapes.
func TestEpilogueRunsInChunk(t *testing.T) {
	g := testGraph(t, 700, 9000, 4)
	const feat = 8
	cases := []struct {
		name   string
		op     ops.OpInfo
		strat  Strategy
		shards int
		walk   string
	}{
		{"rows", ops.AggrSum, ThreadEdge, 1, WalkRows},
		{"edges", ops.UAddV, ThreadEdge, 1, WalkEdgeChunks},
		{"vertex shards", ops.AggrSum, ThreadVertex, 5, WalkRows},
		{"edge shards", ops.AggrSum, WarpEdge, 5, WalkRows},
	}
	for _, tc := range cases {
		plain := makeOperands(g, tc.op, feat, false, 2)
		bound := makeOperands(g, tc.op, feat, false, 2)
		p := MustCompile(tc.op, Schedule{Strategy: tc.strat, Group: 1, Tile: 1})
		be := NewShardedParallelBackend(4, tc.shards)
		pk, err := be.Lower(p, g, plain)
		if err != nil {
			t.Fatal(err)
		}
		if err := pk.Run(); err != nil {
			t.Fatal(err)
		}
		bk, err := be.Lower(p, g, bound)
		if err != nil {
			t.Fatal(err)
		}
		out := bound.C.T
		ok := bk.(EpilogueBinder).BindEpilogue(func(lo, hi int) {
			r := out.RowRange(lo, hi)
			for i := range r.Data {
				r.Data[i] = 2*r.Data[i] + 1
			}
		})
		if !ok {
			t.Fatalf("%s: kernel refused the epilogue", tc.name)
		}
		for run := 0; run < 2; run++ { // twice: the output is rebuilt, not re-transformed
			if err := bk.Run(); err != nil {
				t.Fatal(err)
			}
		}
		for i, v := range plain.C.T.Data {
			if want := 2*v + 1; out.Data[i] != want {
				t.Fatalf("%s: element %d = %v, want %v (epilogue skipped or repeated)", tc.name, i, out.Data[i], want)
			}
		}
		c := bk.Counters()
		if c.Walk != tc.walk || c.Epilogue != EpilogueInChunk || c.Fanout < 2 {
			t.Errorf("%s: counters say walk=%q epilogue=%q fanout=%d", tc.name, c.Walk, c.Epilogue, c.Fanout)
		}
	}
}

// spanBenchCase is one operator shape of BenchmarkSpanKernel.
type spanBenchCase struct {
	dataset string
	op      ops.OpInfo
	feat    int
	scalarB bool
}

var spanBenchCases = []spanBenchCase{
	{"AR", ops.WeightedAggrSum, 8, true},
	{"AR", ops.WeightedAggrSum, 16, true},
	{"AR", ops.WeightedAggrSum, 32, true},
	{"PU", ops.AggrSum, 256, false},
	{"PR", ops.CopyESum, 8, false},
	{"PR", ops.WeightedAggrSum, 64, true},
	{"AR", ops.AggrSum, 128, false},
}

// BenchmarkSpanKernel times the shapes the benchmark's models run — GCN's
// u_mul_e.sum on AR, Sage's copy_u.sum on PU, GAT's copy_e.sum and 64-wide
// u_mul_e.sum on PR — as the per-edge loop, as each span form on one worker
// (in-place; blocked, the Go loop alone; vector, the blocked form with the
// AVX2 kernel under it, one call per row; rows-per-call, the multi-row vector
// kernel, one call for all rows; the last two where the CPU has the kernels),
// and as lowered and dispatched on one and two workers. spanBlock cites its
// rows (`make bench-kernels`).
func BenchmarkSpanKernel(b *testing.B) {
	forms := []string{"in-place", "blocked"}
	if vec.Enabled() {
		forms = append(forms, "vector", "rows-per-call")
	}
	for _, bc := range spanBenchCases {
		g, _, err := datasets.Load(bc.dataset)
		if err != nil {
			b.Fatal(err)
		}
		o := makeOperands(g, bc.op, bc.feat, bc.scalarB, 1)
		name := fmt.Sprintf("%s/%s/feat%d", bc.dataset, bc.op.GatherOp, bc.feat)
		if bc.op.EdgeOp.IsBinary() {
			name = fmt.Sprintf("%s/%s.%s/feat%d", bc.dataset, bc.op.EdgeOp, bc.op.GatherOp, bc.feat)
		}
		b.Run(name+"/per-edge", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				perEdgeOracle(g, bc.op, o)
			}
		})
		for _, form := range forms {
			b.Run(name+"/"+form, func(b *testing.B) {
				// The lowering picks one form per width; force each in turn.
				r, err := lowerRowReducer(bc.op, o, bc.feat)
				if err != nil {
					b.Fatal(err)
				}
				switch {
				case form == "in-place":
					r.span = spanInPlace
				case bc.scalarB:
					r.full, r.scalar, r.span, r.spans = r.a, r.b, spanSumMulScalar, true
				default:
					r.full, r.span, r.spans = r.a, spanSumCopy, true
					if r.a.cols == 0 {
						r.full = r.b
					}
				}
				if form != "rows-per-call" {
					r.spans = false // one r.reduce per row
				}
				if form == "blocked" {
					vec.ForceGeneric(b)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.reduceRows(o.C.T, g, 0, int32(g.NumVertices()))
				}
			})
		}
		if vec.Enabled() && bc.op == ops.CopyESum {
			// The same sum with the edge rows laid out in in-edge order — what
			// a row-resident region's slab is — and one kernel call for all
			// rows (reduceSlab): the gather reads consecutive rows.
			b.Run(name+"/slab", func(b *testing.B) {
				slab := tensor.NewDense(g.NumEdges(), bc.feat)
				for p, e := range g.InEdgeIDs() {
					copy(slab.Row(p), o.B.T.Row(int(e)))
				}
				r, err := lowerRowReducer(bc.op, Operands{A: o.A, B: tensor.Edge(slab), C: o.C}, bc.feat)
				if err != nil {
					b.Fatal(err)
				}
				pos := make([]int32, g.NumEdges())
				for i := range pos {
					pos[i] = int32(i)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					r.reduceSlab(o.C.T, g, 0, int32(g.NumVertices()), 0, pos)
				}
			})
		}
		p := MustCompile(bc.op, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
		for _, workers := range []int{1, 2} {
			k, err := NewShardedParallelBackend(workers, 1).Lower(p, g, o)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/lowered-w%d", name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := k.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEdgeWriter times GAT's two edge-output shapes at its eight heads —
// u_add_v (the attention logits) and e_div_v (the softmax division) — on PR
// and AR: the Go loop alone, the vector kernel under it where the CPU has
// one, both on one worker, and as lowered and dispatched on two
// (`make bench-kernels`; EXPERIMENTS.md "GAT's message path").
func BenchmarkEdgeWriter(b *testing.B) {
	const feat = 8
	shapes := []struct {
		name string
		op   ops.OpInfo
	}{
		{"u_add_v", ops.OpInfo{EdgeOp: ops.EdgeAdd, GatherOp: ops.GatherCopyRHS, AKind: tensor.SrcV, BKind: tensor.DstV, CKind: tensor.EdgeK}},
		{"e_div_v", ops.OpInfo{EdgeOp: ops.EdgeDiv, GatherOp: ops.GatherCopyRHS, AKind: tensor.EdgeK, BKind: tensor.DstV, CKind: tensor.EdgeK}},
	}
	for _, ds := range []string{"PR", "AR"} {
		g, _, err := datasets.Load(ds)
		if err != nil {
			b.Fatal(err)
		}
		for _, sh := range shapes {
			o := makeOperands(g, sh.op, feat, false, 1)
			o.C.T = tensor.NewDense(g.NumEdges(), feat)
			w, err := lowerEdgeWriter(sh.op, g, o)
			if err != nil {
				b.Fatal(err)
			}
			name := fmt.Sprintf("%s/%s/feat%d", ds, sh.name, feat)
			run := func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					w.writeEdges(o.C.T.Data, feat, 0, 0, g.NumEdges())
				}
			}
			b.Run(name+"/go", func(b *testing.B) {
				vec.ForceGeneric(b)
				run(b)
			})
			if vec.Enabled() {
				b.Run(name+"/vector", run)
			}
			k, err := NewShardedParallelBackend(2, 1).Lower(MustCompile(sh.op, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1}), g, o)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(name+"/lowered-w2", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if err := k.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
