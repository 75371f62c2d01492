package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
	"repro/internal/vec/vectest"
)

// hubFixture is a graph whose vertex 3 has more in-edges than a region's edge
// budget (so the slab is sized by it and it is a sub-run alone), between runs
// of ordinary rows and a tail of vertices with no in-edges.
func hubFixture(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 400
	rng := rand.New(rand.NewSource(21))
	b := graph.NewBuilder(n)
	for i := 0; i < regionEdgeBudget+700; i++ {
		b.AddEdge(int32(rng.Intn(n)), 3)
	}
	for i := 0; i < 1500; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n*3/4)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// manyRowsFixture has many rows and few edges, so a chunk's rows all fit one
// slab, with stretches of zero in-degree.
func manyRowsFixture(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 3*regionEdgeBudget + 17
	rng := rand.New(rand.NewSource(22))
	b := graph.NewBuilder(n)
	for i := 0; i < 2000; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomDense(rng *rand.Rand, rows, cols int) *tensor.Dense {
	d := tensor.NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = rng.Float32()*2 - 1
	}
	return d
}

var leakyExp = func(d *tensor.Dense) {
	tensor.LeakyReLU(d, 0.2)
	tensor.Exp(d)
}

// regionCase is one row-resident region: a head operator and operands whose
// Interior computes the head's Edge operand.
type regionCase struct {
	name string
	op   ops.OpInfo
	o    Operands
}

// softmaxRegions builds, over g, the edge-softmax chain GAT runs — u_add_v,
// leaky-relu + exp in place, the per-destination sum, e_div_v, the head merge —
// under a u_mul_e.sum head of the given width, and variants that reach the
// other stage forms: an external Edge operand, a chain that must copy, a max
// and a mean gather, a head with the interior value on its A side.
func softmaxRegions(g *graph.Graph, heads, feat int, seed int64) []regionCase {
	rng := rand.New(rand.NewSource(seed))
	numV, numE := g.NumVertices(), g.NumEdges()
	al, ar := randomDense(rng, numV, heads), randomDense(rng, numV, heads)
	z := randomDense(rng, numV, feat)
	ew := randomDense(rng, numE, heads)
	edgeOp := func(eop ops.EdgeOp, a, b tensor.Kind) ops.OpInfo {
		return ops.OpInfo{EdgeOp: eop, GatherOp: ops.GatherCopyRHS, AKind: a, BKind: b, CKind: tensor.EdgeK}
	}
	scatter := func(gop ops.GatherOp) ops.OpInfo {
		return ops.OpInfo{EdgeOp: ops.CopyRHS, GatherOp: gop, AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV}
	}
	in := func(i int) InteriorOperand { return InteriorOperand{In: i} }
	null := External(tensor.NullTensor)
	out := func() tensor.Typed { return tensor.Dst(tensor.NewDense(numV, feat)) }

	gat := &Interior{
		Values: []InteriorValue{{tensor.EdgeK, heads}, {tensor.DstV, heads}, {tensor.EdgeK, heads}, {tensor.EdgeK, 1}},
		Stages: []InteriorStage{
			{Name: "msgc", Op: edgeOp(ops.EdgeAdd, tensor.SrcV, tensor.DstV), A: External(tensor.Src(al)), B: External(tensor.Dst(ar)), Out: 0},
			{Name: "leaky_exp", Chain: leakyExp, A: in(0), Out: 0},
			{Name: "softmax_sum", Op: scatter(ops.GatherSum), A: null, B: in(0), Out: 1},
			{Name: "softmax_div", Op: edgeOp(ops.EdgeDiv, tensor.EdgeK, tensor.DstV), A: in(0), B: in(1), Out: 2},
			{Name: "head_merge", RowMean: true, A: in(2), Out: 3},
		},
		A: -1, B: 3,
	}
	weighted := &Interior{
		Values: []InteriorValue{{tensor.EdgeK, heads}, {tensor.EdgeK, heads}, {tensor.DstV, heads}, {tensor.EdgeK, heads}, {tensor.EdgeK, 1}},
		Stages: []InteriorStage{
			// An external Edge operand, read through the edge ids.
			{Name: "scale", Op: edgeOp(ops.EdgeMul, tensor.EdgeK, tensor.SrcV), A: External(tensor.Edge(ew)), B: External(tensor.Src(al)), Out: 0},
			// The chain's input is read again below, so it copies.
			{Name: "exp_copy", Chain: leakyExp, A: in(0), Out: 1},
			{Name: "max", Op: scatter(ops.GatherMax), A: null, B: in(1), Out: 2},
			{Name: "sub", Op: edgeOp(ops.EdgeSub, tensor.DstV, tensor.EdgeK), A: in(2), B: in(0), Out: 3},
			{Name: "merge", RowMean: true, A: in(3), Out: 4},
		},
		A: 4, B: -1,
	}
	full := &Interior{
		Values: []InteriorValue{{tensor.EdgeK, feat}, {tensor.DstV, feat}, {tensor.EdgeK, feat}},
		Stages: []InteriorStage{
			{Name: "copy_u", Op: ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherCopyRHS, AKind: tensor.SrcV, CKind: tensor.EdgeK}, A: External(tensor.Src(z)), B: null, Out: 0},
			{Name: "mean", Op: scatter(ops.GatherMean), A: null, B: in(0), Out: 1},
			{Name: "center", Op: edgeOp(ops.EdgeSub, tensor.EdgeK, tensor.DstV), A: in(0), B: in(1), Out: 2},
		},
		A: -1, B: 2,
	}
	return []regionCase{
		{"gat", ops.OpInfo{Name: "head", EdgeOp: ops.EdgeMul, GatherOp: ops.GatherSum, AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.DstV},
			Operands{A: tensor.Src(z), B: tensor.Typed{Kind: tensor.EdgeK}, C: out(), Interior: gat}},
		{"weighted-max", ops.OpInfo{Name: "head", EdgeOp: ops.EdgeMul, GatherOp: ops.GatherMax, AKind: tensor.EdgeK, BKind: tensor.DstV, CKind: tensor.DstV},
			Operands{A: tensor.Typed{Kind: tensor.EdgeK}, B: tensor.Dst(z), C: out(), Interior: weighted}},
		{"full-width-mean", ops.OpInfo{Name: "head", EdgeOp: ops.CopyRHS, GatherOp: ops.GatherMean, AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV},
			Operands{A: tensor.NullTensor, B: tensor.Typed{Kind: tensor.EdgeK}, C: out(), Interior: full}},
	}
}

var tvSchedule = Schedule{Strategy: ThreadVertex, Group: 1, Tile: 1}

// lowerRegion lowers rc on a parallel backend of the given shard count with
// the fan-out forced.
func lowerRegion(t testing.TB, g *graph.Graph, rc regionCase, workers, shards int) *parallelKernel {
	t.Helper()
	b := NewShardedParallelBackend(workers, shards)
	// The fan-out decides how many slab sets a region allocates, so it is
	// forced before lowering, not after.
	k := &parallelKernel{b: b, p: MustCompile(rc.op, tvSchedule), g: g, o: rc.o, fanout: workers, site: nil}
	if err := k.lowerRows(); err != nil {
		t.Fatalf("%s: %v", rc.name, err)
	}
	return k
}

// unfusedOutput runs rc's steps one by one on backend b and returns the output.
func unfusedOutput(t testing.TB, b ExecBackend, g *graph.Graph, rc regionCase) *tensor.Dense {
	t.Helper()
	o := rc.o
	o.C.T = tensor.NewDense(o.C.T.Rows, o.C.T.Cols)
	k, err := lowerUnfused(b, MustCompile(rc.op, tvSchedule), g, o)
	if err != nil {
		t.Fatalf("%s: unfused: %v", rc.name, err)
	}
	if err := k.Run(); err != nil {
		t.Fatalf("%s: unfused: %v", rc.name, err)
	}
	return o.C.T
}

// TestRowRegionMatchesSteps: a row-resident region writes, bit for bit, what
// its stages and head write when they run one after the other on whole
// tensors — on every fixture (a hub row over the edge budget, many light rows,
// zero in-degree stretches, a star), at every worker and shard count, with the
// vector kernels and with the Go loops — and the reference interpreter's
// values; a bound epilogue sees every output row exactly once.
func TestRowRegionMatchesSteps(t *testing.T) {
	fixtures := []struct {
		name string
		g    *graph.Graph
	}{
		{"hub", hubFixture(t)}, {"many-rows", manyRowsFixture(t)},
		{"skewed", skewedFixture(t)}, {"star", starFixture(t)},
	}
	for _, fx := range fixtures {
		for _, shape := range [][2]int{{8, 16}, {8, 8}, {3, 20}} {
			for _, rc := range softmaxRegions(fx.g, shape[0], shape[1], 31) {
				ref := unfusedOutput(t, ReferenceBackend(), fx.g, rc)
				vectest.EachKernelSet(t, func(t *testing.T) {
					want := unfusedOutput(t, NewShardedParallelBackend(1, 1), fx.g, rc)
					if !want.Equal(ref) {
						t.Fatalf("%s/%s: parallel steps differ from the reference interpreter (max diff %g)", fx.name, rc.name, want.MaxDiff(ref))
					}
					for _, workers := range []int{1, 2, 4} {
						for _, shards := range []int{1, 4} {
							k := lowerRegion(t, fx.g, rc, workers, shards)
							seen := make([]int, fx.g.NumVertices())
							k.BindEpilogue(func(lo, hi int) {
								for v := lo; v < hi; v++ {
									seen[v]++ // rows are owned: no two chunks share one
								}
							})
							rc.o.C.T.Fill(-777)
							if err := k.Run(); err != nil {
								t.Fatalf("%s/%s workers=%d shards=%d: %v", fx.name, rc.name, workers, shards, err)
							}
							if i := rc.o.C.T.BitDiff(want); i >= 0 {
								c := rc.o.C.T.Cols
								t.Fatalf("%s/%s heads=%d feat=%d workers=%d shards=%d: row %d col %d = %v (%#x), the steps give %v (%#x)",
									fx.name, rc.name, shape[0], shape[1], workers, shards, i/c, i%c,
									rc.o.C.T.Data[i], math.Float32bits(rc.o.C.T.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
							}
							for v, n := range seen {
								if n != 1 {
									t.Fatalf("%s/%s workers=%d shards=%d: epilogue saw row %d %d times", fx.name, rc.name, workers, shards, v, n)
								}
							}
						}
					}
				})
			}
		}
	}
}

// TestRowRegionCapability: every parallel lowering takes an Interior, flat or
// sharded, and so does the ladder over one, on its primary. The reference
// interpreter, the simulator and the ladder over the reference answer
// ErrNoRowRegion — and the ladder counts no fallback for it.
func TestRowRegionCapability(t *testing.T) {
	g := skewedFixture(t)
	rc := softmaxRegions(g, 8, 16, 5)[0]
	p := MustCompile(rc.op, tvSchedule)
	quiet := func(primary ExecBackend) *ResilientBackend {
		rb := NewResilientBackend(primary, nil)
		rb.SetLogger(nil)
		return rb
	}
	referenceLadder := quiet(ReferenceBackend())
	for name, b := range map[string]ExecBackend{
		"reference": ReferenceBackend(), "sim": NewSimBackend(nil), "resilient over reference": referenceLadder,
	} {
		if _, err := b.Lower(p, g, rc.o); !errors.Is(err, ErrNoRowRegion) {
			t.Errorf("%s: Lower of a region head returned %v, want ErrNoRowRegion", name, err)
		}
	}
	if n := referenceLadder.Fallbacks(); n != 0 {
		t.Errorf("the ladder counted %d fallbacks for a lowering its primary does not have", n)
	}
	for name, b := range map[string]ExecBackend{
		"parallel": NewShardedParallelBackend(2, 1), "shards=0 resolving to one": NewShardedParallelBackend(2, 0),
		"shards=4": NewShardedParallelBackend(2, 4), "resilient": quiet(NewShardedParallelBackend(2, 1)),
		"resilient over shards=4": quiet(NewShardedParallelBackend(2, 4)),
	} {
		k, err := b.Lower(p, g, rc.o)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if c := k.Counters(); c.InteriorStages != 5 || c.SlabFloats == 0 || c.Walk != WalkRows {
			t.Errorf("%s: counters %+v, want 5 interior stages, slab storage and the row walk", name, c)
		}
	}
}

// TestRowRegionBehindLadder: with the ladder on, a region whose primary
// panics reruns as its steps on the reference interpreter — the bound epilogue
// applied exactly once per row — and with it off the *KernelError surfaces.
func TestRowRegionBehindLadder(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	g := hubFixture(t)
	rc := softmaxRegions(g, 8, 16, 9)[0]
	want := unfusedOutput(t, ReferenceBackend(), g, rc)
	for i := range want.Data {
		want.Data[i] += 1 // the epilogue below
	}
	rb := NewResilientBackend(NewShardedParallelBackend(2, 1), nil)
	rb.SetLogger(nil)
	k, err := rb.Lower(MustCompile(rc.op, tvSchedule), g, rc.o)
	if err != nil {
		t.Fatal(err)
	}
	out := rc.o.C.T
	if !k.(EpilogueBinder).BindEpilogue(func(lo, hi int) {
		for i := lo * out.Cols; i < hi*out.Cols; i++ {
			out.Data[i]++
		}
	}) {
		t.Fatal("the ladder did not pass the epilogue to the region kernel")
	}
	if err := k.Run(); err != nil || !out.Equal(want) {
		t.Fatalf("clean run: err %v, max diff %g", err, out.MaxDiff(want))
	}
	faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{Every: 1})
	if err := k.Run(); err != nil {
		t.Fatalf("ladder on: %v", err)
	}
	if !out.Equal(want) || rb.Fallbacks() != 1 {
		t.Fatalf("ladder on: max diff %g from the reference steps, %d fallbacks (want 0 and 1)", out.MaxDiff(want), rb.Fallbacks())
	}
	rb.SetLadder(false)
	var ke *KernelError
	if err := k.Run(); !errors.As(err, &ke) || ke.Op != "head" || rb.Fallbacks() != 1 {
		t.Fatalf("ladder off: err %v, %d fallbacks; want a *KernelError naming the head and no new fallback", err, rb.Fallbacks())
	}
}

// TestRowRegionCancelAndPanic: a context that ends while chunks are being
// dealt stops the region between chunks, a chunk panic — on the caller or a
// helper — is a *KernelError naming the head, and the kernel runs correctly
// afterwards: every chunk gives its slab set back. The runs watch a context
// that can end, so that one worker is dealt chunks too: with nothing to watch
// a pass on one worker is a single inline chunk.
func TestRowRegionCancelAndPanic(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	g := manyRowsFixture(t)
	rc := softmaxRegions(g, 8, 16, 13)[0]
	want := unfusedOutput(t, ReferenceBackend(), g, rc)
	live, stop := context.WithCancel(context.Background())
	defer stop()
	for _, workers := range []int{1, 2} {
		k := lowerRegion(t, g, rc, workers, 1)
		chunks := (k.items + k.chunk - 1) / k.chunk
		if chunks < 4 {
			t.Fatalf("fixture makes %d chunks, want several", chunks)
		}

		ctx, cancel := context.WithCancel(context.Background())
		faultinject.Arm(faultinject.SlowChunk, faultinject.Spec{After: 2, Delay: 1, OnFire: cancel})
		err := k.RunCtx(ctx)
		faultinject.Reset()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: cancelled run returned %v", workers, err)
		}
		if done := k.main.Chunks(); done >= int64(chunks) {
			t.Fatalf("workers=%d: all %d chunks ran after the cancel", workers, chunks)
		}

		faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 2})
		err = k.RunCtx(live)
		faultinject.Reset()
		var ke *KernelError
		if !errors.As(err, &ke) || ke.Op != "head" || !strings.Contains(ke.Error(), "injected") {
			t.Fatalf("workers=%d: chunk panic returned %v, want a *KernelError naming the head", workers, err)
		}
		for i, ss := range k.region.sets {
			if ss.busy.Load() {
				t.Fatalf("workers=%d: slab set %d is still claimed after the panic", workers, i)
			}
		}

		if err := k.RunCtx(live); err != nil {
			t.Fatalf("workers=%d: run after the faults: %v", workers, err)
		}
		if !rc.o.C.T.Equal(want) {
			t.Fatalf("workers=%d: run after the faults differs (max diff %g)", workers, rc.o.C.T.MaxDiff(want))
		}
	}
}

// TestRowRegionRejectsMalformedInterior: an Interior that does not describe a
// destination-local chain is a lowering error, not a panic at Run.
func TestRowRegionRejectsMalformedInterior(t *testing.T) {
	g := skewedFixture(t)
	fresh := func() regionCase { return softmaxRegions(g, 8, 16, 3)[0] }
	cases := map[string]func(rc *regionCase){
		"a stage reads a value no earlier stage wrote": func(rc *regionCase) { rc.o.Interior.Stages[3].B.In = 3 },
		"a value index out of range":                   func(rc *regionCase) { rc.o.Interior.Stages[0].Out = 9 },
		"a Dst_V value read as Src_V": func(rc *regionCase) {
			rc.o.Interior.Stages[3].Op.BKind = tensor.SrcV
		},
		"a scatter of an external tensor": func(rc *regionCase) {
			rc.o.Interior.Stages[2].B = External(tensor.Edge(tensor.NewDense(g.NumEdges(), 8)))
		},
		"an external operand of the wrong height": func(rc *regionCase) {
			rc.o.Interior.Stages[0].A = External(tensor.Src(tensor.NewDense(3, 8)))
		},
		"a width that neither matches nor broadcasts": func(rc *regionCase) { rc.o.Interior.Values[2].Cols = 5 },
		"a row mean that is not one column wide":      func(rc *regionCase) { rc.o.Interior.Values[3].Cols = 8 },
		"no interior operand on the head":             func(rc *regionCase) { rc.o.Interior.B = -1 },
		"a tensor on the interior operand":            func(rc *regionCase) { rc.o.B.T = tensor.NewDense(g.NumEdges(), 1) },
		"an Edge tensor beside the interior operand": func(rc *regionCase) {
			rc.op.AKind, rc.o.A = tensor.EdgeK, tensor.Edge(tensor.NewDense(g.NumEdges(), 16))
		},
		"a head that does not reduce": func(rc *regionCase) {
			rc.op = ops.OpInfo{EdgeOp: ops.EdgeMul, GatherOp: ops.GatherCopyRHS, AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.EdgeK}
			rc.o.C = tensor.Edge(tensor.NewDense(g.NumEdges(), 16))
		},
	}
	for name, corrupt := range cases {
		rc := fresh()
		corrupt(&rc)
		p, err := Compile(rc.op, tvSchedule)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k, err := NewShardedParallelBackend(2, 1).Lower(p, g, rc.o)
		if err == nil || errors.Is(err, ErrNoRowRegion) {
			t.Errorf("%s: Lower returned (%v, %v), want a validation error", name, k, err)
		}
	}
	if rc := fresh(); true {
		if _, err := NewShardedParallelBackend(2, 1).Lower(MustCompile(rc.op, tvSchedule), g, rc.o); err != nil {
			t.Fatalf("the uncorrupted region does not lower: %v", err)
		}
	}
}

// TestRowRegionSlab pins the slab: max(regionEdgeBudget, the largest
// in-degree), whatever the worker or shard count. On the hub fixture the hub,
// above the budget, runs as a sub-run of its own — the stages see its in-edges
// and no other row's — and the full pass at workers 1/2/4 and shards 1/4, and
// a row run that contains the hub, write the steps' bits.
func TestRowRegionSlab(t *testing.T) {
	for _, fx := range []struct {
		name string
		g    *graph.Graph
	}{{"hub", hubFixture(t)}, {"star", starFixture(t)}} {
		g := fx.g
		hub := int32(0)
		for v := int32(1); v < int32(g.NumVertices()); v++ {
			if g.InDegree(v) > g.InDegree(hub) {
				hub = v
			}
		}
		deg := int(g.InDegree(hub))
		if fx.name == "hub" && deg <= regionEdgeBudget {
			t.Fatalf("the hub has %d in-edges, not more than the budget", deg)
		}
		rc := softmaxRegions(g, 8, 8, 1)[0]
		want := unfusedOutput(t, ReferenceBackend(), g, rc)
		// The in-place chain stage sees every sub-run's in-edges as its rows.
		var mu sync.Mutex
		var subRuns []int
		chain := rc.o.Interior.Stages[1].Chain
		rc.o.Interior.Stages[1].Chain = func(d *tensor.Dense) {
			mu.Lock()
			subRuns = append(subRuns, d.Rows)
			mu.Unlock()
			chain(d)
		}
		out := rc.o.C.T
		for _, workers := range []int{1, 2, 4} {
			for _, shards := range []int{1, 4} {
				label := fmt.Sprintf("%s workers=%d shards=%d", fx.name, workers, shards)
				k := lowerRegion(t, g, rc, workers, shards)
				if slab := len(k.region.pos); slab != max(regionEdgeBudget, deg) {
					t.Fatalf("%s: slab of %d in-edges, want max(%d, %d)", label, slab, regionEdgeBudget, deg)
				}
				subRuns = subRuns[:0]
				poison(out)
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if i := out.BitDiff(want); i >= 0 {
					t.Fatalf("%s: element %d differs from the steps", label, i)
				}
				if slices.Max(subRuns) > len(k.region.pos) || (fx.name == "hub" && !slices.Contains(subRuns, deg)) {
					t.Fatalf("%s: sub-runs of %v in-edges; want none over the slab and the hub's %d alone", label, subRuns, deg)
				}
				rows := []int32{}
				for r := int32(0); r <= hub+2; r++ {
					rows = append(rows, r)
				}
				poison(out)
				if err := k.RunRows(context.Background(), rows); err != nil {
					t.Fatal(err)
				}
				checkRows(t, label+" row run", out, want, rows)
			}
		}
	}
}
