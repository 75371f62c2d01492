package program

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

func testGraph(t testing.TB, seed int64, n, m int) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stubScheduler pins one schedule for every task.
type stubScheduler struct {
	sched core.Schedule
	fuse  bool
}

func (s stubScheduler) Device() *gpu.Device                       { return gpu.V100() }
func (s stubScheduler) ScheduleFor(t schedule.Task) core.Schedule { return s.sched }
func (s stubScheduler) Fused() bool                               { return s.fuse }

// fusePairsOnly is the pair rewrite alone: FuseRegions under the cost model
// that accepts nothing beyond it. The graph sizes only price savings.
func fusePairsOnly(p *Program) (*Program, int) {
	fp, stats := FuseRegions(p, 0, 0, PairOnlyCostModel())
	return fp, stats.Pairs
}

// toyProgram records input -> GEMM -> materialise -> scatter -> relu, the
// minimal shape exercising constants, a fusable pair and an activation.
// Returns the program plus the raw weight/edge-scalar tensors for oracles.
func toyProgram(t *testing.T, g *graph.Graph, inCols, outCols int) (*Program, *tensor.Dense, *tensor.Dense) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	w := tensor.NewDense(inCols, outCols)
	w.FillRandom(rng, 0.5)
	ew := tensor.NewDense(g.NumEdges(), 1)
	ew.FillRandom(rng, 1)

	b := NewBuilder("toy", inCols, outCols)
	in := b.Input(inCols)
	wv := b.Const("w", w, VertexRows)
	ewv := b.Const("ew", ew, EdgeRows)
	h := b.GEMM("xw", in, wv, outCols)
	mat := b.GraphOp("aggr_materialize", ops.OpInfo{
		EdgeOp: ops.EdgeMul, GatherOp: ops.GatherCopyRHS,
		AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.EdgeK,
	}, h, ewv, outCols)
	agg := b.GraphOp("aggr_scatter", ops.OpInfo{
		EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, NoValue, mat, outCols)
	out := b.Unary("relu", agg, []Unary{{Kind: UnaryReLU}})
	b.SetOutput(out)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p, w, ew
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"no input", func(b *Builder) {
			w := b.Const("w", tensor.NewDense(2, 2), VertexRows)
			b.SetOutput(w)
		}},
		{"double input", func(b *Builder) {
			b.Input(4)
			v := b.Input(4)
			b.SetOutput(v)
		}},
		{"no output", func(b *Builder) {
			b.Input(4)
		}},
		{"gemm weight not const", func(b *Builder) {
			in := b.Input(4)
			v := b.GEMM("xw", in, in, 4)
			b.SetOutput(v)
		}},
		{"gemm shape mismatch", func(b *Builder) {
			in := b.Input(4)
			w := b.Const("w", tensor.NewDense(3, 2), VertexRows)
			v := b.GEMM("xw", in, w, 2)
			b.SetOutput(v)
		}},
		{"empty unary chain", func(b *Builder) {
			in := b.Input(4)
			v := b.Unary("relu", in, nil)
			b.SetOutput(v)
		}},
		{"add_scaled shape mismatch", func(b *Builder) {
			in := b.Input(4)
			w := b.Const("w", tensor.NewDense(4, 2), VertexRows)
			h := b.GEMM("xw", in, w, 2)
			v := b.AddScaled("add", in, h, 1)
			b.SetOutput(v)
		}},
		{"graph op operand present for null kind", func(b *Builder) {
			in := b.Input(4)
			v := b.GraphOp("agg", ops.OpInfo{
				EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
				AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
			}, in, in, 4)
			b.SetOutput(v)
		}},
		{"graph op rows class mismatch", func(b *Builder) {
			in := b.Input(4)
			// in has vertex rows but is bound to an Edge-kind operand.
			v := b.GraphOp("agg", ops.OpInfo{
				EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
				AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
			}, NoValue, in, 4)
			b.SetOutput(v)
		}},
		{"invalid op info", func(b *Builder) {
			in := b.Input(4)
			v := b.GraphOp("agg", ops.OpInfo{
				EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
				AKind: tensor.SrcV, BKind: tensor.SrcV, CKind: tensor.DstV,
			}, in, in, 4)
			b.SetOutput(v)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder("bad", 4, 4)
			tc.build(b)
			if _, err := b.Finish(); err == nil {
				t.Fatalf("expected Finish to fail")
			}
		})
	}
}

func TestFuseMergesPairs(t *testing.T) {
	g := testGraph(t, 1, 50, 300)
	p, _, _ := toyProgram(t, g, 4, 3)
	if got := p.GraphOpCount(); got != 2 {
		t.Fatalf("recorded graph ops = %d, want 2", got)
	}
	fp, pairs := fusePairsOnly(p)
	if pairs != 1 {
		t.Fatalf("fused pairs = %d, want 1", pairs)
	}
	if got := fp.GraphOpCount(); got != 1 {
		t.Fatalf("post-fusion graph ops = %d, want 1", got)
	}
	var merged *Node
	for i := range fp.Nodes {
		if fp.Nodes[i].Op == OpGraph {
			merged = &fp.Nodes[i]
		}
	}
	if merged.Name != "aggr" {
		t.Errorf("merged name = %q, want %q", merged.Name, "aggr")
	}
	want := ops.OpInfo{
		EdgeOp: ops.EdgeMul, GatherOp: ops.GatherSum,
		AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}
	if merged.GOp != want {
		t.Errorf("merged op = %+v, want %+v", merged.GOp, want)
	}
	// Fusion must not orphan live nodes: DCE afterwards only removes the
	// materialise op's leftovers (here: nothing — operands are shared).
	if _, removed := EliminateDead(fp); removed != 0 {
		t.Errorf("unexpected dead nodes after fusion: %d", removed)
	}
}

func TestFuseSkipsMultiConsumerIntermediate(t *testing.T) {
	g := testGraph(t, 2, 40, 200)
	b := NewBuilder("multi", 4, 4)
	in := b.Input(4)
	ew := tensor.NewDense(g.NumEdges(), 1)
	ew.Fill(1)
	ewv := b.Const("ew", ew, EdgeRows)
	mat := b.GraphOp("x_materialize", ops.OpInfo{
		EdgeOp: ops.EdgeMul, GatherOp: ops.GatherCopyRHS,
		AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.EdgeK,
	}, in, ewv, 4)
	s1 := b.GraphOp("x_scatter", ops.OpInfo{
		EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, NoValue, mat, 4)
	s2 := b.GraphOp("y_scatter", ops.OpInfo{
		EdgeOp: ops.CopyRHS, GatherOp: ops.GatherMax,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, NoValue, mat, 4)
	sum := b.AddScaled("mix", s1, s2, 1)
	b.SetOutput(sum)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	fp, pairs := fusePairsOnly(p)
	if pairs != 0 {
		t.Fatalf("fused %d pairs across a shared intermediate, want 0", pairs)
	}
	if got := fp.GraphOpCount(); got != 3 {
		t.Fatalf("graph ops = %d, want 3", got)
	}
}

// checkPlan asserts the two planner invariants of the issue: values sharing
// a slot never overlap in time (except planner-sanctioned in-place aliases),
// and the slot count equals the maximum live set, recomputed here
// independently from the intervals.
func checkPlan(t *testing.T, p *Program, plan *BufferPlan) {
	t.Helper()
	// Invariant 1: no two live intervals share a buffer.
	bySlot := make(map[int][]ValueID)
	for v := range p.Values {
		if s := plan.Assign[v]; s != NoSlot {
			bySlot[s] = append(bySlot[s], ValueID(v))
		}
	}
	for s, vals := range bySlot {
		for i := 0; i < len(vals); i++ {
			for j := i + 1; j < len(vals); j++ {
				a, b := vals[i], vals[j]
				if plan.Def[a] > plan.Def[b] {
					a, b = b, a
				}
				lu := plan.LastUse[a]
				if lu < 0 {
					lu = plan.Def[a]
				}
				switch {
				case lu < plan.Def[b]:
					// disjoint: fine
				case lu == plan.Def[b] && plan.InPlace[plan.Def[b]] && p.Nodes[plan.Def[b]].X == a:
					// sanctioned in-place alias: fine
				default:
					t.Errorf("slot %d: values %d [%d,%d] and %d [%d,%d] overlap",
						s, a, plan.Def[a], plan.LastUse[a], b, plan.Def[b], plan.LastUse[b])
				}
			}
		}
	}
	// Invariant 2: slot count == peak live set. Recompute the live set per
	// node: values whose interval covers the node, minus one per in-place
	// alias (input and output share storage at the handoff node).
	maxLive := 0
	for i := range p.Nodes {
		live := 0
		for v := range p.Values {
			if plan.Assign[v] == NoSlot {
				continue
			}
			lu := plan.LastUse[v]
			if lu < 0 {
				lu = plan.Def[v]
			}
			if plan.Def[v] <= i && i <= lu {
				live++
			}
		}
		if plan.InPlace[i] {
			live--
		}
		if live > maxLive {
			maxLive = live
		}
	}
	if len(plan.SlotFloats) != maxLive {
		t.Errorf("slots = %d, peak live set = %d", len(plan.SlotFloats), maxLive)
	}
	if plan.PeakLive != len(plan.SlotFloats) {
		t.Errorf("PeakLive = %d, slots = %d", plan.PeakLive, len(plan.SlotFloats))
	}
}

func TestPlanBuffersToy(t *testing.T) {
	g := testGraph(t, 3, 60, 400)
	p, _, _ := toyProgram(t, g, 4, 3)
	for _, fuse := range []bool{false, true} {
		work := p
		if fuse {
			work, _ = fusePairsOnly(p)
		}
		plan, err := PlanBuffers(work, g.NumVertices(), g.NumEdges())
		if err != nil {
			t.Fatal(err)
		}
		checkPlan(t, work, plan)
		// The final relu must run in place on the dying aggregation output.
		last := len(work.Nodes) - 1
		if !plan.InPlace[last] {
			t.Errorf("fuse=%v: final unary should alias its input", fuse)
		}
		// Constants stay out of the plan.
		for i := range work.Nodes {
			if work.Nodes[i].Op == OpConst && plan.Assign[work.Nodes[i].Out] != NoSlot {
				t.Errorf("constant %q got a slot", work.Nodes[i].Name)
			}
		}
	}
}

func TestCompileRunMatchesOracle(t *testing.T) {
	g := testGraph(t, 4, 80, 600)
	const inCols, outCols = 5, 3
	p, w, ew := toyProgram(t, g, inCols, outCols)

	x := tensor.NewDense(g.NumVertices(), inCols)
	x.FillRandom(rand.New(rand.NewSource(9)), 1)

	// Oracle: dense transform, fused weighted aggregation via the reference
	// interpreter, relu.
	h := tensor.MatMul(x, w)
	want := tensor.NewDense(g.NumVertices(), outCols)
	err := core.Reference(g, ops.OpInfo{
		EdgeOp: ops.EdgeMul, GatherOp: ops.GatherSum,
		AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, core.Operands{A: tensor.Src(h), B: tensor.Edge(ew), C: tensor.Dst(want)})
	if err != nil {
		t.Fatal(err)
	}
	tensor.ReLU(want)

	for _, fuse := range []bool{true, false} {
		for _, backend := range []core.ExecBackend{core.ReferenceBackend(), core.NewParallelBackend(2)} {
			cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: fuse}, backend)
			if err != nil {
				t.Fatal(err)
			}
			wantKernels := 2
			if fuse {
				wantKernels = 1
			}
			if cp.Stats().GraphKernels != wantKernels {
				t.Errorf("fuse=%v: graph kernels = %d, want %d", fuse, cp.Stats().GraphKernels, wantKernels)
			}
			var first *tensor.Dense
			for rep := 0; rep < 3; rep++ {
				out, err := cp.Run(x)
				if err != nil {
					t.Fatal(err)
				}
				if !out.AllClose(want, 1e-4, 1e-4) {
					t.Fatalf("fuse=%v backend=%s rep=%d: output mismatch (maxdiff %v)",
						fuse, backend.Name(), rep, out.MaxDiff(want))
				}
				if first == nil {
					first = out.Clone()
				} else if !out.Equal(first) {
					t.Fatalf("fuse=%v backend=%s: rerun not bit-identical", fuse, backend.Name())
				}
			}
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	g := testGraph(t, 5, 30, 100)
	p, _, _ := toyProgram(t, g, 4, 2)
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Run(nil); err == nil {
		t.Error("nil input should fail")
	}
	if _, err := cp.Run(tensor.NewDense(g.NumVertices(), 7)); err == nil {
		t.Error("wrong width should fail")
	}
	if _, err := cp.Run(tensor.NewDense(g.NumVertices()+1, 4)); err == nil {
		t.Error("wrong rows should fail")
	}
}

func TestEliminateDeadRemovesOrphans(t *testing.T) {
	b := NewBuilder("dead", 4, 4)
	in := b.Input(4)
	w := b.Const("w", tensor.NewDense(4, 4), VertexRows)
	_ = b.GEMM("unused", in, w, 4) // dead: nothing consumes it
	out := b.Unary("relu", in, []Unary{{Kind: UnaryReLU}})
	b.SetOutput(out)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	pruned, removed := EliminateDead(p)
	// The dead GEMM and its now-orphaned weight constant both go.
	if removed != 2 {
		t.Fatalf("removed = %d, want 2", removed)
	}
	if len(pruned.Nodes) != len(p.Nodes)-2 {
		t.Fatalf("pruned nodes = %d, want %d", len(pruned.Nodes), len(p.Nodes)-2)
	}
}
