package program

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// pairProgram records the bare materialise+scatter pair with an optional
// prologue unary on the vertex operand, no epilogue. numE sizes the edge
// constant (FuseRegions itself never touches a graph, only row counts).
func pairProgram(t *testing.T, numE, cols int, withPrologue bool) *Program {
	t.Helper()
	b := NewBuilder("pair", cols, cols)
	in := b.Input(cols)
	x := in
	if withPrologue {
		x = b.Unary("pre", in, []Unary{{Kind: UnaryReLU}})
	}
	ew := tensor.NewDense(numE, 1)
	ew.Fill(1)
	ewv := b.Const("ew", ew, EdgeRows)
	mat := b.GraphOp("a_materialize", ops.OpInfo{
		EdgeOp: ops.EdgeMul, GatherOp: ops.GatherCopyRHS,
		AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.EdgeK,
	}, x, ewv, cols)
	out := b.GraphOp("a_scatter", ops.OpInfo{
		EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, NoValue, mat, cols)
	b.SetOutput(out)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func regionOf(t *testing.T, p *Program) *Node {
	t.Helper()
	for i := range p.Nodes {
		if p.Nodes[i].Op == OpGraph && p.Nodes[i].Region != nil {
			return &p.Nodes[i]
		}
	}
	t.Fatal("no region-annotated graph node in program")
	return nil
}

// TestFuseRegionsAbsorbsEpilogue: the toy program's trailing relu folds into
// the fused aggregation as a Post chain, the relu node disappears, and the
// region head now produces the program output.
func TestFuseRegionsAbsorbsEpilogue(t *testing.T) {
	g := testGraph(t, 21, 50, 300)
	p, _, _ := toyProgram(t, g, 4, 3)
	rp, stats := FuseRegions(p, g.NumVertices(), g.NumEdges(), DefaultCostModel())
	if stats.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", stats.Pairs)
	}
	if stats.Regions != 1 || stats.Absorbed != 1 {
		t.Fatalf("regions=%d absorbed=%d, want 1/1", stats.Regions, stats.Absorbed)
	}
	// Pair fusion removes one node, epilogue absorption another.
	if got, want := len(rp.Nodes), len(p.Nodes)-2; got != want {
		t.Fatalf("nodes = %d, want %d", got, want)
	}
	n := regionOf(t, rp)
	if n.Out != rp.Output {
		t.Errorf("region head out = %d, program output = %d", n.Out, rp.Output)
	}
	r := n.Region
	if len(r.Post) != 1 || r.Post[0].Kind != UnaryReLU {
		t.Errorf("post chain = %+v, want single relu", r.Post)
	}
	if len(r.PreX) != 0 || len(r.PreY) != 0 {
		t.Errorf("unexpected prologue chains: %+v / %+v", r.PreX, r.PreY)
	}
	// Saved bytes: pair intermediate round trip + interior output + launch.
	wantSaved := int64(2*4*g.NumEdges()*3) + int64(4*g.NumVertices()*3) + DefaultCostModel().LaunchOverheadBytes
	if r.SavedBytes != wantSaved {
		t.Errorf("saved bytes = %d, want %d", r.SavedBytes, wantSaved)
	}
	if stats.SavedBytes != wantSaved {
		t.Errorf("stats saved bytes = %d, want %d", stats.SavedBytes, wantSaved)
	}
}

// TestFuseRegionsDegeneratePair: with nothing to absorb, FuseRegions under
// the default model is what it is under the pair-only one: the pair rewrite
// plus a degenerate RegionInfo claiming only the pair's saving.
func TestFuseRegionsDegeneratePair(t *testing.T) {
	const numV, numE, cols = 40, 200, 4
	p := pairProgram(t, numE, cols, false)
	rp, stats := FuseRegions(p, numV, numE, DefaultCostModel())
	fp, pairs := fusePairsOnly(p)
	if stats.Pairs != pairs || pairs != 1 {
		t.Fatalf("pairs = %d/%d, want 1", stats.Pairs, pairs)
	}
	if stats.Regions != 0 || stats.Absorbed != 0 {
		t.Fatalf("degenerate pair grew: regions=%d absorbed=%d", stats.Regions, stats.Absorbed)
	}
	if len(rp.Nodes) != len(fp.Nodes) {
		t.Fatalf("node count %d differs from the pair-only pass's %d", len(rp.Nodes), len(fp.Nodes))
	}
	n := regionOf(t, rp)
	r := n.Region
	if len(r.PreX)+len(r.PreY)+len(r.Post) != 0 {
		t.Errorf("degenerate region has chains: %+v", r)
	}
	if want := int64(2 * 4 * numE * cols); r.SavedBytes != want {
		t.Errorf("saved bytes = %d, want pair-only %d", r.SavedBytes, want)
	}
	// Savings aside (the pair-only call priced none), the two agree node for node.
	for i := range rp.Nodes {
		a, b := rp.Nodes[i], fp.Nodes[i]
		a.Region = nil
		if a.Name != b.Name || a.Op != b.Op || a.X != b.X || a.Y != b.Y || a.Out != b.Out {
			t.Errorf("node %d diverges from the pair-only pass: %+v vs %+v", i, a, b)
		}
	}
}

// TestFuseRegionsPrologueCost: a small operand's feeding unary is staged into
// the region; past the cost threshold (StagingPenalty*bytes >= launch
// overhead) the same shape is left alone.
func TestFuseRegionsPrologueCost(t *testing.T) {
	const numE, cols = 200, 4
	cm := DefaultCostModel()
	// gain = LaunchOverheadBytes - 0.5*4*numV*cols: positive at numV=100,
	// negative at numV=8192.
	t.Run("small operand staged", func(t *testing.T) {
		p := pairProgram(t, numE, cols, true)
		rp, stats := FuseRegions(p, 100, numE, cm)
		if stats.Absorbed != 1 {
			t.Fatalf("absorbed = %d, want 1 (prologue)", stats.Absorbed)
		}
		n := regionOf(t, rp)
		if len(n.Region.PreX) != 1 || n.Region.PreX[0].Kind != UnaryReLU {
			t.Fatalf("PreX = %+v, want single relu", n.Region.PreX)
		}
		// The operand now reads the un-activated input directly.
		if n.X != rp.Input {
			t.Errorf("region X = %d, want program input %d", n.X, rp.Input)
		}
	})
	t.Run("large operand rejected", func(t *testing.T) {
		p := pairProgram(t, numE, cols, true)
		rp, stats := FuseRegions(p, 8192, numE, cm)
		if stats.Absorbed != 0 {
			t.Fatalf("absorbed = %d, want 0 (staging too expensive)", stats.Absorbed)
		}
		n := regionOf(t, rp)
		if len(n.Region.PreX) != 0 {
			t.Errorf("PreX = %+v, want empty", n.Region.PreX)
		}
		// The prologue unary survives as its own node.
		found := false
		for i := range rp.Nodes {
			if rp.Nodes[i].Name == "pre" {
				found = true
			}
		}
		if !found {
			t.Error("rejected prologue node was removed")
		}
	})
}

// TestFuseRegionsSkipsMultiConsumerEpilogue: an epilogue whose input is read
// by a second node must stay a separate kernel.
func TestFuseRegionsSkipsMultiConsumerEpilogue(t *testing.T) {
	const numE, cols = 200, 4
	b := NewBuilder("multi", cols, cols)
	in := b.Input(cols)
	ew := tensor.NewDense(numE, 1)
	ew.Fill(1)
	ewv := b.Const("ew", ew, EdgeRows)
	mat := b.GraphOp("a_materialize", ops.OpInfo{
		EdgeOp: ops.EdgeMul, GatherOp: ops.GatherCopyRHS,
		AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.EdgeK,
	}, in, ewv, cols)
	agg := b.GraphOp("a_scatter", ops.OpInfo{
		EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, NoValue, mat, cols)
	relu := b.Unary("relu", agg, []Unary{{Kind: UnaryReLU}})
	out := b.AddScaled("mix", agg, relu, 1) // second consumer of agg
	b.SetOutput(out)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	rp, stats := FuseRegions(p, 40, numE, DefaultCostModel())
	if stats.Pairs != 1 {
		t.Fatalf("pairs = %d, want 1", stats.Pairs)
	}
	if stats.Absorbed != 0 {
		t.Fatalf("absorbed = %d, want 0 (interior has two consumers)", stats.Absorbed)
	}
	n := regionOf(t, rp)
	if len(n.Region.Post) != 0 {
		t.Errorf("post = %+v, want empty", n.Region.Post)
	}
}

// TestFuseRegionsCompileVerifies: a region-grown program passes the mandatory
// static verifier end to end and still matches the interpreter bit for bit in
// kernel count terms (one graph kernel, no standalone epilogue step).
func TestFuseRegionsCompileVerifies(t *testing.T) {
	g := testGraph(t, 22, 60, 400)
	p, _, _ := toyProgram(t, g, 4, 3)
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	if rep := cp.Verify(); !rep.OK() {
		t.Fatalf("region compile reports violations: %v", rep.Diags)
	}
	st := cp.Stats()
	if st.FusedRegions != 1 {
		t.Errorf("fused regions = %d, want 1", st.FusedRegions)
	}
	if st.RegionSavedBytes <= 0 {
		t.Errorf("region saved bytes = %d, want > 0", st.RegionSavedBytes)
	}
	if st.GraphKernels != 1 {
		t.Errorf("graph kernels = %d, want 1", st.GraphKernels)
	}
}

// TestMergedNameFallback pins the bounded fallback for pairs outside the
// canonical "_materialize"/"_scatter" naming convention.
func TestMergedNameFallback(t *testing.T) {
	if got := mergedName("a_materialize", "a_scatter"); got != "a" {
		t.Errorf("canonical pair: got %q, want %q", got, "a")
	}
	if got := mergedName("weird", "other"); got != "weird_fused" {
		t.Errorf("non-canonical: got %q, want %q", got, "weird_fused")
	}
	long := strings.Repeat("x", 60)
	got := mergedName(long, "other")
	want := strings.Repeat("x", 24) + "_fused"
	if got != want {
		t.Errorf("long name: got %q (len %d), want %q", got, len(got), want)
	}
	// Mismatched canonical suffixes also take the fallback.
	if got := mergedName("a_materialize", "b_scatter"); got != "a_materialize_fused" {
		t.Errorf("mismatched bases: got %q", got)
	}
}

// TestRegionNameBounded pins the telemetry label shape for region heads.
func TestRegionNameBounded(t *testing.T) {
	if got := regionName("aggr", 0); got != "aggr_region0" {
		t.Errorf("got %q, want aggr_region0", got)
	}
	long := strings.Repeat("y", 50)
	got := regionName(long, 3)
	want := strings.Repeat("y", 24) + "_region3"
	if got != want {
		t.Errorf("long base: got %q, want %q", got, want)
	}
}
