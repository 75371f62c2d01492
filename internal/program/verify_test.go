package program

import (
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func TestVerifyCleanCompile(t *testing.T) {
	g := testGraph(t, 11, 60, 400)
	p, _, _ := toyProgram(t, g, 4, 3)
	for _, fuse := range []bool{true, false} {
		cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: fuse}, core.ReferenceBackend())
		if err != nil {
			t.Fatalf("fuse=%v: %v", fuse, err)
		}
		rep := cp.Verify()
		if !rep.OK() {
			t.Errorf("fuse=%v: clean compile reports violations: %v", fuse, rep.Diags)
		}
		if len(rep.RulesChecked) == 0 || rep.Subject != "toy" {
			t.Errorf("fuse=%v: report incomplete: %+v", fuse, rep)
		}
	}
}

// TestCorruptionFiresEachRule arms every plan-corruption point/seed variant
// and proves the matching verifier rule rejects the compilation. The
// corruption mutates only a clone of what the rules read, so a firing rule
// must abort Compile — silence would mean the rule cannot catch the bug it
// claims to.
func TestCorruptionFiresEachRule(t *testing.T) {
	g := testGraph(t, 12, 60, 400)
	p, _, _ := toyProgram(t, g, 4, 3)
	cases := []struct {
		point faultinject.Point
		seed  uint64
		rule  string
	}{
		{faultinject.CorruptOperandKind, 0, analysis.RuleOperandType},
		{faultinject.CorruptOperandKind, 1, analysis.RuleSSAForm},
		{faultinject.CorruptFusion, 0, analysis.RuleFusionPair},
		{faultinject.CorruptFusion, 1, analysis.RuleFusionSingleConsumer},
		{faultinject.CorruptFusion, 2, analysis.RuleDCESoundness},
		{faultinject.CorruptFusionRegion, 0, analysis.RuleFusionRegionCost},
		{faultinject.CorruptFusionRegion, 1, analysis.RuleFusionRegion},
		{faultinject.CorruptFusionRegion, 2, analysis.RuleFusionRegion},
		{faultinject.CorruptBufferPlan, 0, analysis.RuleBufferAlias},
		{faultinject.CorruptBufferPlan, 1, analysis.RuleBufferCapacity},
		{faultinject.CorruptBufferPlan, 2, analysis.RuleInPlace},
		{faultinject.CorruptAtomicFlag, 0, analysis.RuleWriteConflict},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Arm(tc.point, faultinject.Spec{Every: 1, Seed: tc.seed})
			_, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
			if err == nil {
				t.Fatalf("corrupted compile succeeded; %s rule never fired", tc.rule)
			}
			var ve *analysis.VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("want *analysis.VerifyError, got %T: %v", err, err)
			}
			if !ve.HasRule(tc.rule) {
				t.Fatalf("want rule %s, got: %v", tc.rule, ve.Diags)
			}
			if faultinject.Fires(tc.point) == 0 {
				t.Fatalf("point %s never fired", tc.point)
			}
		})
	}
}

// readAfterScatterProgram builds the GAT-softmax shape where the edge
// intermediate is read again after its scatter: mat feeds both the sum
// scatter and a later normalisation that divides mat by that sum.
func readAfterScatterProgram(t *testing.T, numEdges int) *Program {
	t.Helper()
	b := NewBuilder("ras", 4, 4)
	in := b.Input(4)
	ew := tensor.NewDense(numEdges, 1)
	ew.Fill(1)
	ewv := b.Const("ew", ew, EdgeRows)
	mat := b.GraphOp("att_materialize", ops.OpInfo{
		EdgeOp: ops.EdgeMul, GatherOp: ops.GatherCopyRHS,
		AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.EdgeK,
	}, in, ewv, 4)
	denom := b.GraphOp("att_scatter", ops.OpInfo{
		EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, NoValue, mat, 4)
	norm := b.GraphOp("att_normalize", ops.OpInfo{
		EdgeOp: ops.EdgeDiv, GatherOp: ops.GatherCopyRHS,
		AKind: tensor.EdgeK, BKind: tensor.DstV, CKind: tensor.EdgeK,
	}, mat, denom, 4)
	out := b.GraphOp("out_scatter", ops.OpInfo{
		EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, NoValue, norm, 4)
	b.SetOutput(out)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFuseSkipsReadAfterScatter: the materialise whose output is re-read
// after its scatter must not merge into it; only the tail pair (normalise +
// final scatter) is a legal fusion.
func TestFuseSkipsReadAfterScatter(t *testing.T) {
	g := testGraph(t, 13, 40, 200)
	p := readAfterScatterProgram(t, g.NumEdges())
	fp, pairs := fusePairsOnly(p)
	if pairs != 1 {
		t.Fatalf("fused pairs = %d, want 1 (only the tail pair is single-consumer)", pairs)
	}
	if got := fp.GraphOpCount(); got != 3 {
		t.Fatalf("post-fusion graph ops = %d, want 3", got)
	}
	// The shared intermediate's producer and its scatter must both survive.
	names := map[string]bool{}
	for i := range fp.Nodes {
		names[fp.Nodes[i].Name] = true
	}
	for _, want := range []string{"att_materialize", "att_scatter"} {
		if !names[want] {
			t.Errorf("node %q was fused away despite its multi-consumer intermediate", want)
		}
	}
	// End to end, the legal fusion must verify clean.
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	if rep := cp.Verify(); !rep.OK() {
		t.Errorf("legal compile reports violations: %v", rep.Diags)
	}
}

// TestVerifierRejectsIllegalHandFusion merges the read-after-scatter pair by
// hand — the rewrite the fusion pass correctly refuses — and proves the verifier
// rejects it.
func TestVerifierRejectsIllegalHandFusion(t *testing.T) {
	g := testGraph(t, 14, 40, 200)
	p := readAfterScatterProgram(t, g.NumEdges())
	// Build the illegal post program: drop the materialise and its scatter,
	// replace them with one fused node, leaving the normalise reading an
	// erased intermediate.
	var scatOut, matX, matY ValueID
	post := &Program{Model: p.Model, Values: p.Values, Input: p.Input, Output: p.Output}
	for _, n := range p.Nodes {
		switch n.Name {
		case "att_materialize":
			matX, matY = n.X, n.Y
		case "att_scatter":
			scatOut = n.Out
		default:
			post.Nodes = append(post.Nodes, n)
		}
	}
	post.Nodes = append(post.Nodes, Node{
		Name: "att", Op: OpGraph, X: matX, Y: matY, Out: scatOut, Fused: true,
		GOp: ops.OpInfo{EdgeOp: ops.EdgeMul, GatherOp: ops.GatherSum,
			AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.DstV},
	})

	err := verifyCompilation(p, post, nil, 0, 0)
	if err == nil {
		t.Fatal("illegal hand-fusion verified clean")
	}
	var ve *analysis.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want *analysis.VerifyError, got %T", err)
	}
	if !ve.HasRule(analysis.RuleFusionSingleConsumer) {
		t.Fatalf("want %s, got: %v", analysis.RuleFusionSingleConsumer, ve.Diags)
	}
}

// TestCoreCompileRejectsCorruptAtomicFlag exercises the plan-level hook
// directly: core.Compile must fail when the verified atomic bit is flipped,
// for both parallelism classes.
func TestCoreCompileRejectsCorruptAtomicFlag(t *testing.T) {
	op := ops.AggrSum
	for _, s := range core.Strategies {
		t.Run(s.Code(), func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			sched := core.Schedule{Strategy: s, Group: 1, Tile: 1}
			if _, err := core.Compile(op, sched); err != nil {
				t.Fatalf("clean compile failed: %v", err)
			}
			faultinject.Arm(faultinject.CorruptAtomicFlag, faultinject.Spec{Every: 1})
			_, err := core.Compile(op, sched)
			var ve *analysis.VerifyError
			if !errors.As(err, &ve) || !ve.HasRule(analysis.RuleWriteConflict) {
				t.Fatalf("want write-conflict violation, got %v", err)
			}
		})
	}
}
