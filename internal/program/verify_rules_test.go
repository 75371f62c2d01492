package program

import (
	"errors"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Hand-built program fixtures for the program-level rules. Each test corrupts
// one aspect of a known-legal program and asserts the matching rule — and
// only that rule — fires.

// aggrSum is the canonical fused aggregation copy_lhs->sum->Dst_V.
var aggrSum = ops.OpInfo{Name: "aggr_sum", EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
	AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV}

// fusedSum is aggrSum as the fusion pass writes it: nameless.
var fusedSum = ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
	AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV}

// input is the program's input node defining value 0.
var input = Node{Name: "input", Op: OpInput, X: NoValue, Y: NoValue, Out: 0}

// relu is the one-element chain the region fixtures absorb.
var relu = []Unary{{Kind: UnaryLeakyReLU}}

// vertex and edge are value shapes of the given width.
func vertex(cols int) Value { return Value{Rows: VertexRows, Cols: cols} }
func edge(cols int) Value   { return Value{Rows: EdgeRows, Cols: cols} }

// legalPost is a minimal legal compiled program: input -> fused aggregation.
func legalPost() *Program {
	return &Program{
		Values: []Value{vertex(4), vertex(4)},
		Nodes: []Node{
			input,
			{Name: "aggr", Op: OpGraph, X: 0, Y: NoValue, Out: 1, GOp: aggrSum},
		},
		Input: 0, Output: 1,
	}
}

// wantRule asserts err is a *analysis.VerifyError containing rule.
func wantRule(t *testing.T, err error, rule string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %s violation, verifier was silent", rule)
	}
	var ve *analysis.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want *analysis.VerifyError, got %T: %v", err, err)
	}
	if !ve.HasRule(rule) {
		t.Fatalf("want rule %s, got: %v", rule, ve.Diags)
	}
}

// verifyPost runs the program-level rules over a compiled program alone.
func verifyPost(post *Program) error { return verifyCompilation(nil, post, nil, 0, 0) }

func TestVerifyProgramLegal(t *testing.T) {
	if err := verifyPost(legalPost()); err != nil {
		t.Fatalf("legal program rejected: %v", err)
	}
}

func TestSSAFormRules(t *testing.T) {
	t.Run("operand out of range", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].X = 99
		wantRule(t, verifyPost(p), analysis.RuleSSAForm)
	})
	t.Run("read before definition", func(t *testing.T) {
		p := legalPost()
		p.Nodes[0], p.Nodes[1] = p.Nodes[1], p.Nodes[0]
		wantRule(t, verifyPost(p), analysis.RuleSSAForm)
	})
	t.Run("double definition", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].Out = 0
		wantRule(t, verifyPost(p), analysis.RuleSSAForm)
	})
	t.Run("undefined output boundary", func(t *testing.T) {
		p := legalPost()
		p.Output = 5
		wantRule(t, verifyPost(p), analysis.RuleSSAForm)
	})
}

func TestOperandTypeRules(t *testing.T) {
	t.Run("reducing gather with edge output", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].GOp.CKind = tensor.EdgeK
		p.Values[1].Rows = EdgeRows
		wantRule(t, verifyPost(p), analysis.RuleOperandType)
	})
	t.Run("output kind not addressable", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].GOp.CKind = tensor.SrcV
		wantRule(t, verifyPost(p), analysis.RuleOperandType)
	})
	t.Run("binary op missing operand", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].GOp.EdgeOp = ops.EdgeMul // binary, but BKind stays Null
		wantRule(t, verifyPost(p), analysis.RuleOperandType)
	})
	t.Run("operand row class mismatch", func(t *testing.T) {
		p := legalPost()
		p.Values[0].Rows = EdgeRows // SrcV operand bound to an edge tensor
		wantRule(t, verifyPost(p), analysis.RuleOperandType)
	})
	t.Run("operand width does not broadcast", func(t *testing.T) {
		p := legalPost()
		p.Values[0].Cols = 3 // neither 4 (output width) nor 1
		wantRule(t, verifyPost(p), analysis.RuleOperandType)
	})
	t.Run("width one broadcasts", func(t *testing.T) {
		p := &Program{
			Values: []Value{vertex(4), {Rows: EdgeRows, Cols: 1, Const: true}, vertex(4)}, // scalar edge weights
			Nodes: []Node{
				input,
				{Name: "weights", Op: OpConst, X: NoValue, Y: NoValue, Out: 1},
				{Name: "waggr", Op: OpGraph, X: 0, Y: 1, Out: 2, GOp: ops.WeightedAggrSum},
			},
			Input: 0, Output: 2,
		}
		if err := verifyPost(p); err != nil {
			t.Fatalf("broadcast operand rejected: %v", err)
		}
	})
}

// fusionPre is the recorded two-kernel form: input -> materialise copy_u
// (edge intermediate) -> scatter copy_e.sum (vertex output).
func fusionPre() *Program {
	return &Program{
		Values: []Value{vertex(4), edge(4), vertex(4)},
		Nodes: []Node{
			input,
			{Name: "mat", Op: OpGraph, X: 0, Y: NoValue, Out: 1, GOp: ops.CopyU},
			{Name: "scat", Op: OpGraph, X: NoValue, Y: 1, Out: 2, GOp: ops.CopyESum},
		},
		Input: 0, Output: 2,
	}
}

// fusionPost is the legally fused form of fusionPre. Value 1 is dead after
// fusion but still in the table.
func fusionPost() *Program {
	return &Program{
		Values: []Value{vertex(4), edge(4), vertex(4)},
		Nodes: []Node{
			input,
			{Name: "fused", Op: OpGraph, X: 0, Y: NoValue, Out: 2, Fused: true, GOp: fusedSum},
		},
		Input: 0, Output: 2,
	}
}

func TestFusionRules(t *testing.T) {
	verify := func(pre, post *Program) error { return verifyCompilation(pre, post, nil, 0, 0) }
	t.Run("legal fusion", func(t *testing.T) {
		if err := verify(fusionPre(), fusionPost()); err != nil {
			t.Fatalf("legal fusion rejected: %v", err)
		}
	})
	t.Run("lost fusion marker", func(t *testing.T) {
		post := fusionPost()
		post.Nodes[1].Fused = false // now claims to be the recorded scatter, but differs
		wantRule(t, verify(fusionPre(), post), analysis.RuleFusionPair)
	})
	t.Run("wrong merged operator", func(t *testing.T) {
		post := fusionPost()
		post.Nodes[1].GOp.GatherOp = ops.GatherMax // scatter reduced by sum
		wantRule(t, verify(fusionPre(), post), analysis.RuleFusionPair)
	})
	t.Run("multi-consumer intermediate", func(t *testing.T) {
		pre := fusionPre()
		// A second reader of the |E| x F intermediate makes the merge illegal.
		pre.Values = append(pre.Values, vertex(4))
		pre.Nodes = append(pre.Nodes, Node{
			Name: "scat2", Op: OpGraph, X: NoValue, Y: 1, Out: 3, GOp: ops.CopyESum})
		post := fusionPost()
		post.Values = append(post.Values, vertex(4))
		wantRule(t, verify(pre, post), analysis.RuleFusionSingleConsumer)
	})
	t.Run("intermediate is program output", func(t *testing.T) {
		pre := fusionPre()
		pre.Output = 1
		wantRule(t, verify(pre, fusionPost()), analysis.RuleFusionSingleConsumer)
	})
	t.Run("live node dropped", func(t *testing.T) {
		post := fusionPost()
		post.Nodes = post.Nodes[:1] // drop the fused node: scatter+mat now unaccounted
		post.Output = 0
		wantRule(t, verify(fusionPre(), post), analysis.RuleDCESoundness)
	})
	t.Run("invented value", func(t *testing.T) {
		post := fusionPost()
		post.Values = append(post.Values, vertex(4))
		post.Nodes = append(post.Nodes, Node{
			Name: "ghost", Op: OpUnary, X: 2, Y: NoValue, Out: 3})
		wantRule(t, verify(fusionPre(), post), analysis.RuleDCESoundness)
	})
}

// regionPre is the recorded four-kernel form behind a fused region with an
// epilogue: input -> materialise copy_u -> scatter copy_e.sum -> relu.
func regionPre() *Program {
	return &Program{
		Values: []Value{vertex(4), edge(4), vertex(4), vertex(4)},
		Nodes: []Node{
			input,
			{Name: "mat", Op: OpGraph, X: 0, Y: NoValue, Out: 1, GOp: ops.CopyU},
			{Name: "scat", Op: OpGraph, X: NoValue, Y: 1, Out: 2, GOp: ops.CopyESum},
			{Name: "relu", Op: OpUnary, X: 2, Y: NoValue, Out: 3, Chain: relu},
		},
		Input: 0, Output: 3,
	}
}

// regionPost is the legally regioned form of regionPre: one graph node that
// merges the pair and absorbs the relu epilogue. Values 1 and 2 are dead
// after fusion and absorption.
func regionPost() *Program {
	return &Program{
		Values: []Value{vertex(4), edge(4), vertex(4), vertex(4)},
		Nodes: []Node{
			input,
			{Name: "aggr_region0", Op: OpGraph, X: 0, Y: NoValue, Out: 3, Fused: true, GOp: fusedSum,
				Region: &RegionInfo{Post: relu, SavedBytes: 960}},
		},
		Input: 0, Output: 3,
	}
}

func TestFusionRegionRules(t *testing.T) {
	// verify checks on a graph of 10 vertices and 30 edges, which the
	// region cost bound needs.
	verify := func(pre, post *Program) error { return verifyCompilation(pre, post, nil, 10, 30) }
	t.Run("legal region with epilogue", func(t *testing.T) {
		if err := verify(regionPre(), regionPost()); err != nil {
			t.Fatalf("legal region rejected: %v", err)
		}
	})
	t.Run("legal pair-degenerate region", func(t *testing.T) {
		// A bare fused pair carrying region metadata (the trivial region).
		post := fusionPost()
		post.Nodes[1].Region = &RegionInfo{SavedBytes: 960}
		if err := verify(fusionPre(), post); err != nil {
			t.Fatalf("pair-degenerate region rejected: %v", err)
		}
	})
	t.Run("post chain mismatch", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].Region.Post = []Unary{{Kind: 9}} // not what the recorded relu computes
		wantRule(t, verify(regionPre(), post), analysis.RuleFusionRegion)
	})
	t.Run("phantom extra post element", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].Region.Post = append(relu, relu...)
		wantRule(t, verify(regionPre(), post), analysis.RuleFusionRegion)
	})
	t.Run("multi-consumer interior", func(t *testing.T) {
		pre := regionPre()
		// A second reader of the scatter output makes absorbing the relu illegal.
		pre.Values = append(pre.Values, vertex(4))
		pre.Nodes = append(pre.Nodes, Node{
			Name: "relu2", Op: OpUnary, X: 2, Y: NoValue, Out: 4, Chain: relu})
		post := regionPost()
		post.Values = append(post.Values, vertex(4))
		wantRule(t, verify(pre, post), analysis.RuleFusionRegion)
	})
	t.Run("interior is program output", func(t *testing.T) {
		pre := regionPre()
		pre.Output = 2 // the scatter output must stay materialised
		post := regionPost()
		post.Output = 2
		wantRule(t, verify(pre, post), analysis.RuleFusionRegion)
	})
	t.Run("negative claimed savings", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].Region.SavedBytes = -1
		wantRule(t, verify(regionPre(), post), analysis.RuleFusionRegionCost)
	})
	t.Run("inflated claimed savings", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].Region.SavedBytes = 1 << 50
		wantRule(t, verify(regionPre(), post), analysis.RuleFusionRegionCost)
	})
	t.Run("cost bound skipped without graph sizes", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].Region.SavedBytes = 1 << 50
		if err := verifyCompilation(regionPre(), post, nil, 0, 0); err != nil {
			t.Fatalf("sizeless check should skip the bound: %v", err)
		}
	})
	t.Run("unfused region over a plain graph base", func(t *testing.T) {
		// input -> aggr -> relu absorbed as aggr+epilogue without pair fusion.
		pre := &Program{
			Values: []Value{vertex(4), vertex(4), vertex(4)},
			Nodes: []Node{
				input,
				{Name: "aggr", Op: OpGraph, X: 0, Y: NoValue, Out: 1, GOp: aggrSum},
				{Name: "relu", Op: OpUnary, X: 1, Y: NoValue, Out: 2, Chain: relu},
			},
			Input: 0, Output: 2,
		}
		post := &Program{
			Values: []Value{vertex(4), vertex(4), vertex(4)},
			Nodes: []Node{
				input,
				{Name: "aggr_region0", Op: OpGraph, X: 0, Y: NoValue, Out: 2, GOp: aggrSum,
					Region: &RegionInfo{Post: relu, SavedBytes: 320}},
			},
			Input: 0, Output: 2,
		}
		if err := verify(pre, post); err != nil {
			t.Fatalf("legal unfused region rejected: %v", err)
		}
		// Corrupting the base operator must fire the region rule.
		post.Nodes[1].GOp.GatherOp = ops.GatherMax
		wantRule(t, verify(pre, post), analysis.RuleFusionRegion)
	})
	t.Run("prologue region stages an absorbed operand chain", func(t *testing.T) {
		// input -> relu -> materialise -> scatter, with the relu staged into
		// the region's A operand read.
		pre := &Program{
			Values: []Value{vertex(4), vertex(4), edge(4), vertex(4)},
			Nodes: []Node{
				input,
				{Name: "relu", Op: OpUnary, X: 0, Y: NoValue, Out: 1, Chain: relu},
				{Name: "mat", Op: OpGraph, X: 1, Y: NoValue, Out: 2, GOp: ops.CopyU},
				{Name: "scat", Op: OpGraph, X: NoValue, Y: 2, Out: 3, GOp: ops.CopyESum},
			},
			Input: 0, Output: 3,
		}
		post := &Program{
			Values: []Value{vertex(4), vertex(4), edge(4), vertex(4)},
			Nodes: []Node{
				input,
				{Name: "aggr_region0", Op: OpGraph, X: 0, Y: NoValue, Out: 3, Fused: true, GOp: fusedSum,
					Region: &RegionInfo{PreX: relu, SavedBytes: 100}},
			},
			Input: 0, Output: 3,
		}
		if err := verify(pre, post); err != nil {
			t.Fatalf("legal prologue region rejected: %v", err)
		}
		// The chain must land exactly on the region's operand.
		post.Nodes[1].Region.PreX = nil
		wantRule(t, verify(pre, post), analysis.RuleFusionRegion)
	})
}

// bufferProgram is an elementwise chain input -> relu -> relu whose plan the
// buffer tests corrupt: values 0,1,2 all vertex-rows, 4 columns.
func bufferProgram() *Program {
	return &Program{
		Values: []Value{vertex(4), vertex(4), vertex(4)},
		Nodes: []Node{
			input,
			{Name: "relu1", Op: OpUnary, X: 0, Y: NoValue, Out: 1},
			{Name: "relu2", Op: OpUnary, X: 1, Y: NoValue, Out: 2},
		},
		Input: 0, Output: 2,
	}
}

// bufferVertices sizes the buffer tests' graph.
const bufferVertices = 10

func bufferPlan() *BufferPlan {
	return &BufferPlan{
		Assign:     []int{0, 1, 0}, // v0 [0,1] and v2 [2,3] share slot 0 disjointly
		InPlace:    []bool{false, false, false},
		SlotFloats: []int{bufferVertices * 4, bufferVertices * 4},
	}
}

func TestBufferRules(t *testing.T) {
	verify := func(p *Program, plan *BufferPlan) error {
		return verifyCompilation(nil, p, plan, bufferVertices, 30)
	}
	t.Run("legal plan", func(t *testing.T) {
		if err := verify(bufferProgram(), bufferPlan()); err != nil {
			t.Fatalf("legal plan rejected: %v", err)
		}
	})
	t.Run("overlapping values share a slot", func(t *testing.T) {
		plan := bufferPlan()
		plan.Assign = []int{0, 0, 1} // v0 [0,1] and v1 [1,2] overlap on slot 0
		wantRule(t, verify(bufferProgram(), plan), analysis.RuleBufferAlias)
	})
	t.Run("live value without slot", func(t *testing.T) {
		plan := bufferPlan()
		plan.Assign[1] = NoSlot
		wantRule(t, verify(bufferProgram(), plan), analysis.RuleBufferAlias)
	})
	t.Run("slot too small", func(t *testing.T) {
		plan := bufferPlan()
		plan.SlotFloats[1] = 4 // value 1 needs 10*4 floats
		wantRule(t, verify(bufferProgram(), plan), analysis.RuleBufferCapacity)
	})
	t.Run("legal in-place chain", func(t *testing.T) {
		plan := bufferPlan()
		plan.Assign = []int{0, 1, 1}
		plan.InPlace = []bool{false, false, true} // relu2 overwrites v1 as it dies
		if err := verify(bufferProgram(), plan); err != nil {
			t.Fatalf("legal in-place plan rejected: %v", err)
		}
	})
	t.Run("in-place on non-elementwise node", func(t *testing.T) {
		p := bufferProgram()
		p.Nodes[2].Op = OpHeadMerge
		plan := bufferPlan()
		plan.Assign = []int{0, 1, 1}
		plan.InPlace = []bool{false, false, true}
		wantRule(t, verify(p, plan), analysis.RuleInPlace)
	})
	t.Run("in-place without shared storage", func(t *testing.T) {
		plan := bufferPlan()
		plan.InPlace = []bool{false, false, true} // claims aliasing, slots differ
		wantRule(t, verify(bufferProgram(), plan), analysis.RuleInPlace)
	})
	t.Run("in-place over still-live operand", func(t *testing.T) {
		p := bufferProgram()
		// A second reader keeps v1 alive past relu2.
		p.Values = append(p.Values, vertex(4))
		p.Nodes = append(p.Nodes, Node{Name: "relu3", Op: OpUnary, X: 1, Y: NoValue, Out: 3})
		plan := bufferPlan()
		plan.Assign = []int{0, 1, 1, 2}
		plan.InPlace = []bool{false, false, true, false}
		plan.SlotFloats = []int{40, 40, 40}
		wantRule(t, verify(p, plan), analysis.RuleInPlace)
	})
}

// attentionPost is a compiled attention layer with a row-resident region:
// z = gemm(in); the head reduces z (Src_V) under an interior Edge value that
// two interior nodes compute from `in` read as Src_V and as Dst_V.
//
//	values: 0 in, 1 w (const), 2 z, 3 scores (interior), 4 alpha (interior), 5 out
func attentionPost() *Program {
	return &Program{
		Values: []Value{
			vertex(8), {Rows: VertexRows, Cols: 8, Const: true}, vertex(8),
			edge(8), edge(1), vertex(8),
		},
		Nodes: []Node{
			input,
			{Name: "w", Op: OpConst, X: NoValue, Y: NoValue, Out: 1},
			{Name: "xw", Op: OpGEMM, X: 0, Y: 1, Out: 2},
			{Name: "aggr", Op: OpGraph, X: 2, Y: 4, Out: 5,
				GOp: ops.OpInfo{EdgeOp: ops.EdgeMul, GatherOp: ops.GatherSum, AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.DstV},
				Region: &RegionInfo{Interior: []Node{
					{Name: "scores", Op: OpGraph, X: 0, Y: 0, Out: 3,
						GOp: ops.OpInfo{EdgeOp: ops.EdgeAdd, GatherOp: ops.GatherCopyRHS, AKind: tensor.SrcV, BKind: tensor.DstV, CKind: tensor.EdgeK}},
					{Name: "merge", Op: OpHeadMerge, X: 3, Y: NoValue, Out: 4},
				}}},
		},
		Input: 0, Output: 5,
	}
}

// attentionRows is what the compiler records for attentionPost: the GEMM
// carries its input; the head expands z and, for its interior, both expands
// and carries the input.
func attentionRows() []step {
	return []step{
		{name: "xw", rowReads: []rowRead{{v: 0}}},
		{name: "aggr", rowReads: []rowRead{{v: 2, expand: true}, {v: 0, expand: true}, {v: 0}}},
	}
}

func TestRowClosureRule(t *testing.T) {
	const declined = "declined"
	verify := func(post *Program, steps []step) error {
		return analysis.Finish(checkRowClosure(post, steps))
	}
	t.Run("legal transfers are silent", func(t *testing.T) {
		if err := verify(attentionPost(), attentionRows()); err != nil {
			t.Fatalf("legal row transfers rejected: %v", err)
		}
		if err := verify(legalPost(), []step{{name: "aggr", rowReads: []rowRead{{v: 0, expand: true}}}}); err != nil {
			t.Fatalf("legal aggregation rejected: %v", err)
		}
	})
	t.Run("Src_V operand carried instead of expanded", func(t *testing.T) {
		steps := attentionRows()
		steps[1].rowReads[0].expand = false
		wantRule(t, verify(attentionPost(), steps), analysis.RuleRowClosure)
	})
	t.Run("interior's external operand dropped", func(t *testing.T) {
		steps := attentionRows()
		steps[1].rowReads = steps[1].rowReads[:2] // the interior's Dst_V read of the input
		wantRule(t, verify(attentionPost(), steps), analysis.RuleRowClosure)
	})
	t.Run("a read no operand makes", func(t *testing.T) {
		steps := attentionRows()
		steps[0].rowReads = append(steps[0].rowReads, rowRead{v: 2})
		wantRule(t, verify(attentionPost(), steps), analysis.RuleRowClosure)
	})
	t.Run("a declining step needs no transfer", func(t *testing.T) {
		steps := attentionRows()
		steps[1] = step{name: "aggr", rowDeclined: declined}
		if err := verify(attentionPost(), steps); err != nil {
			t.Fatalf("a step recorded as declining was rejected: %v", err)
		}
	})
	t.Run("a step over edge rows cannot run row sets", func(t *testing.T) {
		post := attentionPost()
		// The interior becomes steps of their own: scores writes an Edge value.
		head := post.Nodes[3]
		post.Nodes = append(post.Nodes[:3:3], head.Region.Interior[0], head.Region.Interior[1], Node{
			Name: "aggr", Op: OpGraph, X: 2, Y: 4, Out: 5, GOp: head.GOp,
		})
		steps := []step{
			attentionRows()[0],
			{name: "scores", rowReads: []rowRead{{v: 0, expand: true}, {v: 0}}},
			{name: "merge", rowDeclined: declined},
			{name: "aggr", rowDeclined: declined},
		}
		wantRule(t, verify(post, steps), analysis.RuleRowClosure)
		steps[1] = step{name: "scores", rowDeclined: declined}
		if err := verify(post, steps); err != nil {
			t.Fatalf("the recorded steps, all declining, were rejected: %v", err)
		}
		// The head reads a computed Edge value: it has no transfer either.
		steps[3] = step{name: "aggr", rowReads: []rowRead{{v: 2, expand: true}}}
		wantRule(t, verify(post, steps), analysis.RuleRowClosure)
	})
	t.Run("one record per compiled step", func(t *testing.T) {
		wantRule(t, verify(attentionPost(), attentionRows()[:1]), analysis.RuleRowClosure)
		wantRule(t, verify(attentionPost(), append(attentionRows(), step{name: "extra"})), analysis.RuleRowClosure)
	})
}

func TestStatsCount(t *testing.T) {
	before := analysis.Stats()
	if err := verifyPost(legalPost()); err != nil {
		t.Fatal(err)
	}
	p := legalPost()
	p.Nodes[1].X = 99
	if err := verifyPost(p); err == nil {
		t.Fatal("corrupted program verified")
	}
	after := analysis.Stats()
	if after.Programs-before.Programs != 2 {
		t.Errorf("programs counter moved by %d, want 2", after.Programs-before.Programs)
	}
	if after.Violations <= before.Violations {
		t.Errorf("violations counter did not move")
	}
}
