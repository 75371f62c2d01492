package analysis

import (
	"errors"
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Hand-built IR fixtures. Each test corrupts one aspect of a known-legal
// program and asserts the matching rule — and only that rule — fires.

// aggrSum is the canonical fused aggregation copy_lhs->sum->Dst_V.
var aggrSum = ops.OpInfo{Name: "aggr_sum", EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
	AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV}

// legalPost is a minimal legal compiled program: input -> fused aggregation.
func legalPost() *ProgramIR {
	return &ProgramIR{
		Values: []IRValue{
			{Rows: VertexRows, Cols: 4},
			{Rows: VertexRows, Cols: 4},
		},
		Nodes: []IRNode{
			{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
			{Name: "aggr", Kind: KindGraph, X: 0, Y: NoValue, Out: 1, Op: aggrSum},
		},
		Input: 0, Output: 1,
	}
}

// wantRule asserts err is a *VerifyError containing rule.
func wantRule(t *testing.T, err error, rule string) {
	t.Helper()
	if err == nil {
		t.Fatalf("want %s violation, verifier was silent", rule)
	}
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("want *VerifyError, got %T: %v", err, err)
	}
	if !ve.HasRule(rule) {
		t.Fatalf("want rule %s, got: %v", rule, ve.Diags)
	}
}

func TestVerifyProgramLegal(t *testing.T) {
	if err := VerifyProgram(ProgramCheck{Post: legalPost()}); err != nil {
		t.Fatalf("legal program rejected: %v", err)
	}
}

func TestSSAFormRules(t *testing.T) {
	t.Run("operand out of range", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].X = 99
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleSSAForm)
	})
	t.Run("read before definition", func(t *testing.T) {
		p := legalPost()
		p.Nodes[0], p.Nodes[1] = p.Nodes[1], p.Nodes[0]
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleSSAForm)
	})
	t.Run("double definition", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].Out = 0
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleSSAForm)
	})
	t.Run("undefined output boundary", func(t *testing.T) {
		p := legalPost()
		p.Output = 5
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleSSAForm)
	})
}

func TestOperandTypeRules(t *testing.T) {
	t.Run("reducing gather with edge output", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].Op.CKind = tensor.EdgeK
		p.Values[1].Rows = EdgeRows
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleOperandType)
	})
	t.Run("output kind not addressable", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].Op.CKind = tensor.SrcV
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleOperandType)
	})
	t.Run("binary op missing operand", func(t *testing.T) {
		p := legalPost()
		p.Nodes[1].Op.EdgeOp = ops.EdgeMul // binary, but BKind stays Null
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleOperandType)
	})
	t.Run("operand row class mismatch", func(t *testing.T) {
		p := legalPost()
		p.Values[0].Rows = EdgeRows // SrcV operand bound to an edge tensor
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleOperandType)
	})
	t.Run("operand width does not broadcast", func(t *testing.T) {
		p := legalPost()
		p.Values[0].Cols = 3 // neither 4 (output width) nor 1
		wantRule(t, VerifyProgram(ProgramCheck{Post: p}), RuleOperandType)
	})
	t.Run("width one broadcasts", func(t *testing.T) {
		p := &ProgramIR{
			Values: []IRValue{
				{Rows: VertexRows, Cols: 4},
				{Rows: EdgeRows, Cols: 1}, // scalar edge weights
				{Rows: VertexRows, Cols: 4},
			},
			Nodes: []IRNode{
				{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
				{Name: "weights", Kind: KindConst, X: NoValue, Y: NoValue, Out: 1},
				{Name: "waggr", Kind: KindGraph, X: 0, Y: 1, Out: 2, Op: ops.WeightedAggrSum},
			},
			Input: 0, Output: 2,
		}
		if err := VerifyProgram(ProgramCheck{Post: p}); err != nil {
			t.Fatalf("broadcast operand rejected: %v", err)
		}
	})
}

// fusionPre is the recorded two-kernel form: input -> materialise copy_u
// (edge intermediate) -> scatter copy_e.sum (vertex output).
func fusionPre() *ProgramIR {
	return &ProgramIR{
		Values: []IRValue{
			{Rows: VertexRows, Cols: 4},
			{Rows: EdgeRows, Cols: 4},
			{Rows: VertexRows, Cols: 4},
		},
		Nodes: []IRNode{
			{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
			{Name: "mat", Kind: KindGraph, X: 0, Y: NoValue, Out: 1, Op: ops.CopyU},
			{Name: "scat", Kind: KindGraph, X: NoValue, Y: 1, Out: 2, Op: ops.CopyESum},
		},
		Input: 0, Output: 2,
	}
}

// fusionPost is the legally fused form of fusionPre.
func fusionPost() *ProgramIR {
	return &ProgramIR{
		Values: []IRValue{
			{Rows: VertexRows, Cols: 4},
			{Rows: EdgeRows, Cols: 4}, // dead after fusion but still in the table
			{Rows: VertexRows, Cols: 4},
		},
		Nodes: []IRNode{
			{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
			{Name: "fused", Kind: KindGraph, X: 0, Y: NoValue, Out: 2, Fused: true,
				Op: ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
					AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV}},
		},
		Input: 0, Output: 2,
	}
}

func TestFusionRules(t *testing.T) {
	t.Run("legal fusion", func(t *testing.T) {
		if err := VerifyProgram(ProgramCheck{Pre: fusionPre(), Post: fusionPost()}); err != nil {
			t.Fatalf("legal fusion rejected: %v", err)
		}
	})
	t.Run("lost fusion marker", func(t *testing.T) {
		post := fusionPost()
		post.Nodes[1].Fused = false // now claims to be the recorded scatter, but differs
		wantRule(t, VerifyProgram(ProgramCheck{Pre: fusionPre(), Post: post}), RuleFusionPair)
	})
	t.Run("wrong merged operator", func(t *testing.T) {
		post := fusionPost()
		post.Nodes[1].Op.GatherOp = ops.GatherMax // scatter reduced by sum
		wantRule(t, VerifyProgram(ProgramCheck{Pre: fusionPre(), Post: post}), RuleFusionPair)
	})
	t.Run("multi-consumer intermediate", func(t *testing.T) {
		pre := fusionPre()
		// A second reader of the |E| x F intermediate makes the merge illegal.
		pre.Values = append(pre.Values, IRValue{Rows: VertexRows, Cols: 4})
		pre.Nodes = append(pre.Nodes, IRNode{
			Name: "scat2", Kind: KindGraph, X: NoValue, Y: 1, Out: 3, Op: ops.CopyESum})
		post := fusionPost()
		post.Values = append(post.Values, IRValue{Rows: VertexRows, Cols: 4})
		wantRule(t, VerifyProgram(ProgramCheck{Pre: pre, Post: post}), RuleFusionSingleConsumer)
	})
	t.Run("intermediate is program output", func(t *testing.T) {
		pre := fusionPre()
		pre.Output = 1
		post := fusionPost()
		wantRule(t, VerifyProgram(ProgramCheck{Pre: pre, Post: post}), RuleFusionSingleConsumer)
	})
	t.Run("live node dropped", func(t *testing.T) {
		pre := fusionPre()
		post := fusionPost()
		post.Nodes = post.Nodes[:1] // drop the fused node: scatter+mat now unaccounted
		post.Output = 0
		wantRule(t, VerifyProgram(ProgramCheck{Pre: pre, Post: post}), RuleDCESoundness)
	})
	t.Run("invented value", func(t *testing.T) {
		pre := fusionPre()
		post := fusionPost()
		post.Values = append(post.Values, IRValue{Rows: VertexRows, Cols: 4})
		post.Nodes = append(post.Nodes, IRNode{
			Name: "ghost", Kind: KindUnary, X: 2, Y: NoValue, Out: 3})
		wantRule(t, VerifyProgram(ProgramCheck{Pre: pre, Post: post}), RuleDCESoundness)
	})
}

// regionPre is the recorded four-kernel form behind a fused region with an
// epilogue: input -> materialise copy_u -> scatter copy_e.sum -> relu.
func regionPre() *ProgramIR {
	return &ProgramIR{
		Values: []IRValue{
			{Rows: VertexRows, Cols: 4},
			{Rows: EdgeRows, Cols: 4},
			{Rows: VertexRows, Cols: 4},
			{Rows: VertexRows, Cols: 4},
		},
		Nodes: []IRNode{
			{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
			{Name: "mat", Kind: KindGraph, X: 0, Y: NoValue, Out: 1, Op: ops.CopyU},
			{Name: "scat", Kind: KindGraph, X: NoValue, Y: 1, Out: 2, Op: ops.CopyESum},
			{Name: "relu", Kind: KindUnary, X: 2, Y: NoValue, Out: 3, Chain: []Elem{{Kind: 1}}},
		},
		Input: 0, Output: 3,
	}
}

// regionPost is the legally regioned form of regionPre: one graph node that
// merges the pair and absorbs the relu epilogue.
func regionPost() *ProgramIR {
	return &ProgramIR{
		Values: []IRValue{
			{Rows: VertexRows, Cols: 4},
			{Rows: EdgeRows, Cols: 4},   // dead after fusion
			{Rows: VertexRows, Cols: 4}, // dead after absorption
			{Rows: VertexRows, Cols: 4},
		},
		Nodes: []IRNode{
			{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
			{Name: "aggr_region0", Kind: KindGraph, X: 0, Y: NoValue, Out: 3, Fused: true,
				Op: ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
					AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV},
				HasRegion: true, Post: []Elem{{Kind: 1}}, RegionSavedBytes: 960},
		},
		Input: 0, Output: 3,
	}
}

func TestFusionRegionRules(t *testing.T) {
	sizes := func(c ProgramCheck) ProgramCheck { c.NumVertices, c.NumEdges = 10, 30; return c }
	t.Run("legal region with epilogue", func(t *testing.T) {
		err := VerifyProgram(sizes(ProgramCheck{Pre: regionPre(), Post: regionPost()}))
		if err != nil {
			t.Fatalf("legal region rejected: %v", err)
		}
	})
	t.Run("legal pair-degenerate region", func(t *testing.T) {
		// A bare fused pair carrying region metadata (the trivial region).
		pre := fusionPre()
		post := fusionPost()
		post.Nodes[1].HasRegion = true
		post.Nodes[1].RegionSavedBytes = 960
		if err := VerifyProgram(sizes(ProgramCheck{Pre: pre, Post: post})); err != nil {
			t.Fatalf("pair-degenerate region rejected: %v", err)
		}
	})
	t.Run("post chain mismatch", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].Post = []Elem{{Kind: 9}} // not what the recorded relu computes
		wantRule(t, VerifyProgram(sizes(ProgramCheck{Pre: regionPre(), Post: post})), RuleFusionRegion)
	})
	t.Run("phantom extra post element", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].Post = append(post.Nodes[1].Post, Elem{Kind: 1})
		wantRule(t, VerifyProgram(sizes(ProgramCheck{Pre: regionPre(), Post: post})), RuleFusionRegion)
	})
	t.Run("multi-consumer interior", func(t *testing.T) {
		pre := regionPre()
		// A second reader of the scatter output makes absorbing the relu illegal.
		pre.Values = append(pre.Values, IRValue{Rows: VertexRows, Cols: 4})
		pre.Nodes = append(pre.Nodes, IRNode{
			Name: "relu2", Kind: KindUnary, X: 2, Y: NoValue, Out: 4, Chain: []Elem{{Kind: 1}}})
		post := regionPost()
		post.Values = append(post.Values, IRValue{Rows: VertexRows, Cols: 4})
		wantRule(t, VerifyProgram(sizes(ProgramCheck{Pre: pre, Post: post})), RuleFusionRegion)
	})
	t.Run("interior is program output", func(t *testing.T) {
		pre := regionPre()
		pre.Output = 2 // the scatter output must stay materialised
		post := regionPost()
		post.Output = 2
		wantRule(t, VerifyProgram(sizes(ProgramCheck{Pre: pre, Post: post})), RuleFusionRegion)
	})
	t.Run("negative claimed savings", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].RegionSavedBytes = -1
		wantRule(t, VerifyProgram(sizes(ProgramCheck{Pre: regionPre(), Post: post})), RuleFusionRegionCost)
	})
	t.Run("inflated claimed savings", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].RegionSavedBytes = 1 << 50
		wantRule(t, VerifyProgram(sizes(ProgramCheck{Pre: regionPre(), Post: post})), RuleFusionRegionCost)
	})
	t.Run("cost bound skipped without graph sizes", func(t *testing.T) {
		post := regionPost()
		post.Nodes[1].RegionSavedBytes = 1 << 50
		if err := VerifyProgram(ProgramCheck{Pre: regionPre(), Post: post}); err != nil {
			t.Fatalf("sizeless check should skip the bound: %v", err)
		}
	})
	t.Run("unfused region over a plain graph base", func(t *testing.T) {
		// input -> aggr -> relu absorbed as aggr+epilogue without pair fusion.
		pre := &ProgramIR{
			Values: []IRValue{
				{Rows: VertexRows, Cols: 4},
				{Rows: VertexRows, Cols: 4},
				{Rows: VertexRows, Cols: 4},
			},
			Nodes: []IRNode{
				{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
				{Name: "aggr", Kind: KindGraph, X: 0, Y: NoValue, Out: 1, Op: aggrSum},
				{Name: "relu", Kind: KindUnary, X: 1, Y: NoValue, Out: 2, Chain: []Elem{{Kind: 1}}},
			},
			Input: 0, Output: 2,
		}
		post := &ProgramIR{
			Values: []IRValue{
				{Rows: VertexRows, Cols: 4},
				{Rows: VertexRows, Cols: 4},
				{Rows: VertexRows, Cols: 4},
			},
			Nodes: []IRNode{
				{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
				{Name: "aggr_region0", Kind: KindGraph, X: 0, Y: NoValue, Out: 2, Op: aggrSum,
					HasRegion: true, Post: []Elem{{Kind: 1}}, RegionSavedBytes: 320},
			},
			Input: 0, Output: 2,
		}
		if err := VerifyProgram(sizes(ProgramCheck{Pre: pre, Post: post})); err != nil {
			t.Fatalf("legal unfused region rejected: %v", err)
		}
		// Corrupting the base operator must fire the region rule.
		bad := post.Nodes[1]
		bad.Op.GatherOp = ops.GatherMax
		post.Nodes[1] = bad
		wantRule(t, VerifyProgram(sizes(ProgramCheck{Pre: pre, Post: post})), RuleFusionRegion)
	})
	t.Run("prologue region stages an absorbed operand chain", func(t *testing.T) {
		// input -> relu -> materialise -> scatter, with the relu staged into
		// the region's A operand read.
		pre := &ProgramIR{
			Values: []IRValue{
				{Rows: VertexRows, Cols: 4},
				{Rows: VertexRows, Cols: 4},
				{Rows: EdgeRows, Cols: 4},
				{Rows: VertexRows, Cols: 4},
			},
			Nodes: []IRNode{
				{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
				{Name: "relu", Kind: KindUnary, X: 0, Y: NoValue, Out: 1, Chain: []Elem{{Kind: 1}}},
				{Name: "mat", Kind: KindGraph, X: 1, Y: NoValue, Out: 2, Op: ops.CopyU},
				{Name: "scat", Kind: KindGraph, X: NoValue, Y: 2, Out: 3, Op: ops.CopyESum},
			},
			Input: 0, Output: 3,
		}
		post := &ProgramIR{
			Values: []IRValue{
				{Rows: VertexRows, Cols: 4},
				{Rows: VertexRows, Cols: 4},
				{Rows: EdgeRows, Cols: 4},
				{Rows: VertexRows, Cols: 4},
			},
			Nodes: []IRNode{
				{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
				{Name: "aggr_region0", Kind: KindGraph, X: 0, Y: NoValue, Out: 3, Fused: true,
					Op: ops.OpInfo{EdgeOp: ops.CopyLHS, GatherOp: ops.GatherSum,
						AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.DstV},
					HasRegion: true, PreX: []Elem{{Kind: 1}}, RegionSavedBytes: 100},
			},
			Input: 0, Output: 3,
		}
		if err := VerifyProgram(sizes(ProgramCheck{Pre: pre, Post: post})); err != nil {
			t.Fatalf("legal prologue region rejected: %v", err)
		}
		// The chain must land exactly on the region's operand.
		bad := post.Nodes[1]
		bad.PreX = nil
		post.Nodes[1] = bad
		wantRule(t, VerifyProgram(sizes(ProgramCheck{Pre: pre, Post: post})), RuleFusionRegion)
	})
}

// bufferProgram is an elementwise chain input -> relu -> relu whose plan the
// buffer tests corrupt: values 0,1,2 all vertex-rows, 4 columns.
func bufferProgram() *ProgramIR {
	return &ProgramIR{
		Values: []IRValue{
			{Rows: VertexRows, Cols: 4},
			{Rows: VertexRows, Cols: 4},
			{Rows: VertexRows, Cols: 4},
		},
		Nodes: []IRNode{
			{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
			{Name: "relu1", Kind: KindUnary, X: 0, Y: NoValue, Out: 1},
			{Name: "relu2", Kind: KindUnary, X: 1, Y: NoValue, Out: 2},
		},
		Input: 0, Output: 2,
	}
}

func bufferPlan() *BufferFacts {
	const v = 10
	return &BufferFacts{
		Assign:      []int{0, 1, 0}, // v0 [0,1] and v2 [2,3] share slot 0 disjointly
		InPlace:     []bool{false, false, false},
		SlotFloats:  []int{v * 4, v * 4},
		NumVertices: v, NumEdges: 30,
	}
}

func TestBufferRules(t *testing.T) {
	t.Run("legal plan", func(t *testing.T) {
		if err := VerifyProgram(ProgramCheck{Post: bufferProgram(), Plan: bufferPlan()}); err != nil {
			t.Fatalf("legal plan rejected: %v", err)
		}
	})
	t.Run("overlapping values share a slot", func(t *testing.T) {
		plan := bufferPlan()
		plan.Assign = []int{0, 0, 1} // v0 [0,1] and v1 [1,2] overlap on slot 0
		wantRule(t, VerifyProgram(ProgramCheck{Post: bufferProgram(), Plan: plan}), RuleBufferAlias)
	})
	t.Run("live value without slot", func(t *testing.T) {
		plan := bufferPlan()
		plan.Assign[1] = NoSlot
		wantRule(t, VerifyProgram(ProgramCheck{Post: bufferProgram(), Plan: plan}), RuleBufferAlias)
	})
	t.Run("slot too small", func(t *testing.T) {
		plan := bufferPlan()
		plan.SlotFloats[1] = 4 // value 1 needs 10*4 floats
		wantRule(t, VerifyProgram(ProgramCheck{Post: bufferProgram(), Plan: plan}), RuleBufferCapacity)
	})
	t.Run("legal in-place chain", func(t *testing.T) {
		plan := bufferPlan()
		plan.Assign = []int{0, 1, 1}
		plan.InPlace = []bool{false, false, true} // relu2 overwrites v1 as it dies
		if err := VerifyProgram(ProgramCheck{Post: bufferProgram(), Plan: plan}); err != nil {
			t.Fatalf("legal in-place plan rejected: %v", err)
		}
	})
	t.Run("in-place on non-elementwise node", func(t *testing.T) {
		p := bufferProgram()
		p.Nodes[2].Kind = KindOther
		plan := bufferPlan()
		plan.Assign = []int{0, 1, 1}
		plan.InPlace = []bool{false, false, true}
		wantRule(t, VerifyProgram(ProgramCheck{Post: p, Plan: plan}), RuleInPlace)
	})
	t.Run("in-place without shared storage", func(t *testing.T) {
		plan := bufferPlan()
		plan.InPlace = []bool{false, false, true} // claims aliasing, slots differ
		wantRule(t, VerifyProgram(ProgramCheck{Post: bufferProgram(), Plan: plan}), RuleInPlace)
	})
	t.Run("in-place over still-live operand", func(t *testing.T) {
		p := bufferProgram()
		// A second reader keeps v1 alive past relu2.
		p.Values = append(p.Values, IRValue{Rows: VertexRows, Cols: 4})
		p.Nodes = append(p.Nodes, IRNode{Name: "relu3", Kind: KindUnary, X: 1, Y: NoValue, Out: 3})
		plan := bufferPlan()
		plan.Assign = []int{0, 1, 1, 2}
		plan.InPlace = []bool{false, false, true, false}
		plan.SlotFloats = []int{40, 40, 40}
		wantRule(t, VerifyProgram(ProgramCheck{Post: p, Plan: plan}), RuleInPlace)
	})
}

func TestVerifyPlan(t *testing.T) {
	t.Run("vertex-parallel aggregation needs no atomics", func(t *testing.T) {
		err := VerifyPlan(PlanFacts{Op: aggrSum, Schedule: "TV", VertexParallel: true, NeedsAtomic: false})
		if err != nil {
			t.Fatalf("legal plan rejected: %v", err)
		}
	})
	t.Run("edge-parallel aggregation needs atomics", func(t *testing.T) {
		err := VerifyPlan(PlanFacts{Op: aggrSum, Schedule: "TE", VertexParallel: false, NeedsAtomic: true})
		if err != nil {
			t.Fatalf("legal plan rejected: %v", err)
		}
	})
	t.Run("missing atomic bit", func(t *testing.T) {
		err := VerifyPlan(PlanFacts{Op: aggrSum, Schedule: "TE", VertexParallel: false, NeedsAtomic: false})
		wantRule(t, err, RuleWriteConflict)
	})
	t.Run("spurious atomic bit", func(t *testing.T) {
		err := VerifyPlan(PlanFacts{Op: aggrSum, Schedule: "TV", VertexParallel: true, NeedsAtomic: true})
		wantRule(t, err, RuleWriteConflict)
	})
	t.Run("illegal descriptor", func(t *testing.T) {
		op := aggrSum
		op.CKind = tensor.SrcV
		err := VerifyPlan(PlanFacts{Op: op, Schedule: "TV", VertexParallel: true, NeedsAtomic: false})
		wantRule(t, err, RuleOperandType)
	})
}

func TestVerifyLowering(t *testing.T) {
	cases := []struct {
		name     string
		op       ops.OpInfo
		vp       bool
		handling string
		ok       bool
	}{
		{"sequential always safe", aggrSum, false, ConflictSequential, true},
		{"per-edge-rows for edge output", ops.CopyU, false, ConflictPerEdgeRows, true},
		{"per-edge-rows for vertex output races", aggrSum, false, ConflictPerEdgeRows, false},
		{"owner-per-row under vertex-parallel", aggrSum, true, ConflictOwnerPerRow, true},
		{"owner-per-row under an edge-parallel plan", aggrSum, false, ConflictOwnerPerRow, true},
		{"owner-per-row for edge output rejected", ops.CopyU, false, ConflictOwnerPerRow, false},
		{"atomic for aggregation", aggrSum, false, ConflictAtomic, true},
		{"unknown discipline rejected", aggrSum, false, "wishful-thinking", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := VerifyLowering(PlanFacts{Op: tc.op, Schedule: "s", VertexParallel: tc.vp}, tc.handling)
			if tc.ok && err != nil {
				t.Fatalf("safe lowering rejected: %v", err)
			}
			if !tc.ok {
				wantRule(t, err, RuleWriteConflict)
			}
		})
	}
}

func TestStatsCount(t *testing.T) {
	before := Stats()
	if err := VerifyProgram(ProgramCheck{Post: legalPost()}); err != nil {
		t.Fatal(err)
	}
	p := legalPost()
	p.Nodes[1].X = 99
	if err := VerifyProgram(ProgramCheck{Post: p}); err == nil {
		t.Fatal("corrupted program verified")
	}
	after := Stats()
	if after.Programs-before.Programs != 2 {
		t.Errorf("programs counter moved by %d, want 2", after.Programs-before.Programs)
	}
	if after.Violations <= before.Violations {
		t.Errorf("violations counter did not move")
	}
}

func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: RuleBufferAlias, Node: "relu", Msg: "overlap", Hint: "split slots"}
	if got, want := d.String(), "buffer-alias: relu: overlap (split slots)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	e := &VerifyError{Diags: []Diagnostic{d}}
	if !e.HasRule(RuleBufferAlias) || e.HasRule(RuleInPlace) {
		t.Errorf("HasRule misreports")
	}
}
