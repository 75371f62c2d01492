package program

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// attention says how attentionProgram departs from GAT's layer.
type attention struct {
	noSoftmax   bool // the activated scores go straight to the head merge
	srcReadBack bool // the per-destination sum is read back through a Src_V operand
	denomRead   bool // the sum is also added into the result: a reader outside the chain
	scoresRead  bool // the activated scores are also reduced into the result
	edgeWeights bool // the head multiplies two Edge operands, the chain's and recorded weights
	denomOutput bool // the sum is the program's output
}

// attentionProgram records one attention layer over the input (heads columns)
// the way the GAT recorder does: z = gemm(in), scores = u_add_v(in, in),
// leaky-relu + exp, the per-destination sum, e_div_v, head merge, and z
// aggregated under the merged coefficients, decomposed into materialise +
// scatter, then a leaky-relu.
func attentionProgram(t testing.TB, numE, heads, feat int, a attention) *Program {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder("attention", heads, feat)
	in := b.Input(heads)
	w := tensor.NewDense(heads, feat)
	w.FillRandom(rng, 0.5)
	z := b.GEMM("xw", in, b.Const("xw_w", w, VertexRows), feat)
	edge := func(eop ops.EdgeOp, ak, bk tensor.Kind) ops.OpInfo {
		return ops.OpInfo{EdgeOp: eop, GatherOp: ops.GatherCopyRHS, AKind: ak, BKind: bk, CKind: tensor.EdgeK}
	}
	sum := ops.OpInfo{EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum, AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV}
	scores := b.GraphOp("MsgC", edge(ops.EdgeAdd, tensor.SrcV, tensor.DstV), in, in, heads)
	scores = b.Unary("leaky_exp", scores, []Unary{{Kind: UnaryLeakyReLU, Alpha: 0.2}, {Kind: UnaryExp}})
	alpha, denom := scores, NoValue
	if !a.noSoftmax {
		denom = b.GraphOp("softmax_sum", sum, NoValue, scores, heads)
		if a.srcReadBack {
			alpha = b.GraphOp("times_u", edge(ops.EdgeMul, tensor.EdgeK, tensor.SrcV), scores, denom, heads)
		} else {
			alpha = b.GraphOp("softmax_div", edge(ops.EdgeDiv, tensor.EdgeK, tensor.DstV), scores, denom, heads)
		}
	}
	merged := b.HeadMerge("head_merge", alpha)
	var out ValueID
	if a.edgeWeights {
		ew := tensor.NewDense(numE, 1)
		ew.Fill(0.5)
		mat := b.GraphOp("Aggr_materialize", edge(ops.EdgeMul, tensor.EdgeK, tensor.EdgeK), b.Const("ew", ew, EdgeRows), merged, 1)
		out = b.GraphOp("Aggr_scatter", sum, NoValue, mat, 1)
	} else {
		mat := b.GraphOp("Aggr_materialize", edge(ops.EdgeMul, tensor.SrcV, tensor.EdgeK), z, merged, feat)
		out = b.GraphOp("Aggr_scatter", sum, NoValue, mat, feat)
		out = b.Unary("elu", out, []Unary{{Kind: UnaryLeakyReLU, Alpha: 0.1}})
	}
	if a.denomRead || a.scoresRead {
		extra := denom
		if a.scoresRead {
			extra = b.GraphOp("scores_sum", sum, NoValue, scores, heads)
		}
		narrow := tensor.NewDense(heads, feat)
		narrow.FillRandom(rng, 0.1)
		out = b.AddScaled("plus", out, b.GEMM("proj", extra, b.Const("proj_w", narrow, VertexRows), feat), 1)
	}
	b.SetOutput(out)
	if a.denomOutput {
		b.SetOutput(denom)
	}
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// interiorNames lists the interior of the program's row-resident region, ""
// when no head grew one.
func interiorNames(p *Program) string {
	for i := range p.Nodes {
		if r := p.Nodes[i].Region; r != nil && len(r.Interior) > 0 {
			names := make([]string, len(r.Interior))
			for j := range r.Interior {
				names[j] = r.Interior[j].Name
			}
			return p.Nodes[i].Name + ": " + strings.Join(names, " ")
		}
	}
	return ""
}

// TestGrowInteriorDecisions pins what FuseRegions takes into a row-resident
// region: the whole edge-softmax chain when nothing outside reads it, the
// largest destination-local part of it when something does, nothing when the
// head cannot bind the result as its only Edge operand — and that a model
// without an Edge-operand chain compiles to the program it always did.
func TestGrowInteriorDecisions(t *testing.T) {
	const numV, numE, heads, feat = 60, 400, 8, 16
	for _, tc := range []struct {
		name string
		a    attention
		want string
	}{
		{"GAT's layer", attention{}, "Aggr: MsgC softmax_sum softmax_div head_merge"},
		{"no softmax", attention{noSoftmax: true}, "Aggr: MsgC head_merge"},
		{"the sum read back as Src_V is another row's", attention{srcReadBack: true}, "Aggr: times_u head_merge"},
		{"the sum read outside the chain", attention{denomRead: true}, "Aggr: softmax_div head_merge"},
		{"the sum is the program's output", attention{denomOutput: true}, "Aggr: softmax_div head_merge"},
		{"the scores read outside the chain", attention{scoresRead: true}, "Aggr: softmax_div head_merge"},
		{"a head with two Edge operands", attention{edgeWeights: true}, ""},
	} {
		p := attentionProgram(t, numE, heads, feat, tc.a)
		rp, _ := FuseRegions(p, numV, numE, DefaultCostModel())
		if got := interiorNames(rp); got != tc.want {
			t.Errorf("%s: interior %q, want %q", tc.name, got, tc.want)
		}
		for _, cm := range []CostModel{PairOnlyCostModel(), {LaunchOverheadBytes: 1 << 14, StagingPenalty: 0.5, stepsOnly: true}} {
			if sp, _ := FuseRegions(p, numV, numE, cm); interiorNames(sp) != "" {
				t.Errorf("%s: a region grew under %+v", tc.name, cm)
			}
		}
	}

	// What a region stands for is in its annotation and nowhere else: the head
	// reads the externals its interior reads, interior values get no slot, the
	// claimed saving counts every absorbed node.
	p := attentionProgram(t, numE, heads, feat, attention{})
	rp, stats := FuseRegions(p, numV, numE, DefaultCostModel())
	rp, _ = EliminateDead(rp)
	head := regionOf(t, rp)
	if stats.Regions != 1 || head.Region.Absorbed != 6 { // leaky_exp, the four interior nodes, elu
		t.Errorf("regions=%d absorbed=%d, want 1 and 6", stats.Regions, head.Region.Absorbed)
	}
	var names []string
	for i := range rp.Nodes {
		names = append(names, rp.Nodes[i].Name)
	}
	if got := strings.Join(names, " "); got != "input xw_w xw Aggr" {
		t.Errorf("surviving nodes %q, want input xw_w xw Aggr: nothing of the chain is a step", got)
	}
	reads := head.operands()
	if !slices.Contains(reads, rp.Input) || slices.ContainsFunc(reads, head.Region.interior) {
		t.Errorf("head reads %v: want the input its MsgC reads and no interior value", reads)
	}
	plan, err := PlanBuffers(rp, numV, numE)
	if err != nil {
		t.Fatal(err)
	}
	for i := range head.Region.Interior {
		if v := head.Region.Interior[i].Out; plan.Assign[v] != NoSlot {
			t.Errorf("interior value %d (%s) has arena slot %d", v, head.Region.Interior[i].Name, plan.Assign[v])
		}
	}
}

// TestRowRegionCompiles: on the parallel backend, flat or under a shard plan,
// the attention layer compiles to its GEMM and one graph step whose kernel
// carries the four interior stages (five with MsgC's epilogue) on slabs, and
// computes what the recorded program computes — the sharded program the flat
// one's bits; on backends without the lowering the same program compiles to
// the steps it always did, says why in its provenance, and computes the same.
func TestRowRegionCompiles(t *testing.T) {
	g := testGraph(t, 71, 300, 3000)
	const heads, feat = 8, 16
	x := tensor.NewDense(g.NumVertices(), heads)
	x.FillRandom(rand.New(rand.NewSource(3)), 1)
	sched := stubScheduler{sched: core.DefaultSchedule, fuse: true}
	for _, a := range []attention{{}, {noSoftmax: true}, {srcReadBack: true}, {denomRead: true}, {scoresRead: true}} {
		p := attentionProgram(t, g.NumEdges(), heads, feat, a)
		want := interpret(t, p, g, x)
		steps := map[bool][]int{}
		var flat *tensor.Dense
		for _, tc := range []struct {
			name    string
			backend core.ExecBackend
			region  bool
		}{
			{"parallel", core.NewShardedParallelBackend(2, 1), true},
			{"resilient", core.NewResilientBackend(core.NewShardedParallelBackend(2, 1)), true},
			{"reference", core.ReferenceBackend(), false},
			{"shards=4", core.NewShardedParallelBackend(2, 4), true},
		} {
			cp, err := Compile(p, g, sched, tc.backend)
			if err != nil {
				t.Fatalf("%+v on %s: %v", a, tc.name, err)
			}
			if rep := cp.Verify(); !rep.OK() {
				t.Fatalf("%+v on %s: %v", a, tc.name, rep.Diags)
			}
			st := cp.Stats()
			if (st.RowRegions == 1) != tc.region || (st.InteriorStages > 0) != tc.region || (st.SlabFloats > 0) != tc.region {
				t.Errorf("%+v on %s: %d row regions, %d interior stages, %d slab floats; region wanted: %v",
					a, tc.name, st.RowRegions, st.InteriorStages, st.SlabFloats, tc.region)
			}
			if len(cp.Schedules()) != st.GraphKernels || st.GraphKernels != cp.Program().GraphOpCount() {
				t.Errorf("%+v on %s: %d schedules, %d graph kernels, %d graph nodes: the three must leave together",
					a, tc.name, len(cp.Schedules()), st.GraphKernels, cp.Program().GraphOpCount())
			}
			note := ""
			for _, n := range cp.Rewrites() {
				if n.Pass == PassRowResident {
					note = n.String()
				}
			}
			if tc.region != strings.Contains(note, "accepted under rule fusion-region") || tc.region == strings.Contains(note, "no row-resident lowering") {
				t.Errorf("%+v on %s: provenance %q", a, tc.name, note)
			}
			got, err := cp.Run(x)
			if err != nil {
				t.Fatalf("%+v on %s: %v", a, tc.name, err)
			}
			if !got.AllClose(want, 1e-4, 1e-4) {
				t.Errorf("%+v on %s: differs from the recorded program by %g", a, tc.name, got.MaxDiff(want))
			}
			if flat == nil {
				flat = got.Clone()
			} else if d := got.BitDiff(flat); tc.region && d >= 0 {
				t.Errorf("%+v on %s: differs from the flat parallel program at element %d", a, tc.name, d)
			}
			steps[tc.region] = append(steps[tc.region], st.Steps)
		}
		with, without := steps[true], steps[false]
		if slices.Min(with) != slices.Max(with) || slices.Min(without) != slices.Max(without) || with[0] >= without[0] {
			t.Errorf("%+v: steps with the region %v, without %v; want fewer with it and the same within each kind", a, with, without)
		}
	}
}

// TestRowRegionCorruptionFiresFusionRegion: each of the two ways a
// row-resident region can be wrong about its closure — a scatter's result
// read back through a Src_V operand, an interior value read by a recorded node
// outside the region — is exactly one fusion-region diagnostic, through
// Compile and through Verify; a program without such a region gives the seeds
// nothing to corrupt.
func TestRowRegionCorruptionFiresFusionRegion(t *testing.T) {
	g := testGraph(t, 72, 60, 400)
	sched := stubScheduler{sched: core.DefaultSchedule, fuse: true}
	p := attentionProgram(t, g.NumEdges(), 8, 16, attention{})
	backend := core.NewShardedParallelBackend(2, 1)
	clean, err := Compile(p, g, sched, backend)
	if err != nil {
		t.Fatal(err)
	}
	for seed, want := range map[uint64]string{3: "as Src_V", 4: "outside the region"} {
		func() {
			defer faultinject.Reset()
			faultinject.Arm(faultinject.CorruptFusionRegion, faultinject.Spec{Every: 1, Seed: seed})
			_, err := Compile(p, g, sched, backend)
			var ve *analysis.VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("seed %d: corrupted compile returned %v, want a *VerifyError", seed, err)
			}
			if len(ve.Diags) != 1 || ve.Diags[0].Rule != analysis.RuleFusionRegion || !strings.Contains(ve.Diags[0].Msg, want) {
				t.Fatalf("seed %d: diagnostics %v, want exactly one fusion-region diagnostic about a value read %s", seed, ve.Diags, want)
			}
			if rep := clean.Verify(); len(rep.Diags) != 1 || rep.Diags[0].Rule != analysis.RuleFusionRegion {
				t.Fatalf("seed %d: Verify reports %v, want the same single diagnostic", seed, rep.Diags)
			}
			toy, _, _ := toyProgram(t, g, 4, 3)
			if _, err := Compile(toy, g, sched, backend); err != nil {
				t.Fatalf("seed %d: a program without a row-resident region failed to compile: %v", seed, err)
			}
		}()
	}
}

// TestRowRegionHeadIsAWaveEffect: the head's effect set carries what its
// interior reads from the arena, so no step that overwrites one of those
// values can share its wave.
func TestRowRegionHeadIsAWaveEffect(t *testing.T) {
	g := testGraph(t, 73, 60, 400)
	p := attentionProgram(t, g.NumEdges(), 8, 16, attention{})
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.NewShardedParallelBackend(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	in, ok := cp.valueInterval(cp.prog.Input)
	if !ok {
		t.Fatal("the input has no arena interval")
	}
	effs := cp.stepEffects()
	head := effs[len(effs)-1]
	if !slices.Contains(head.Reads, in) {
		t.Errorf("head %s reads %+v, missing the input %+v its interior MsgC reads", head.Name, head.Reads, in)
	}
	if last := cp.plan.LastUse[cp.prog.Input]; cp.prog.Nodes[last].Name != "Aggr" {
		t.Errorf("the input's last use is %q, want the region head", cp.prog.Nodes[last].Name)
	}
}
