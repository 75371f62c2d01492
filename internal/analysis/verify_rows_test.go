package analysis

import (
	"testing"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// attentionPost is a compiled attention layer with a row-resident region:
// z = gemm(in); the head reduces z (Src_V) under an interior Edge value that
// two interior nodes compute from `in` read as Src_V and as Dst_V.
//
//	values: 0 in, 1 w (const), 2 z, 3 scores (interior), 4 alpha (interior), 5 out
func attentionPost() *ProgramIR {
	edge := func(eop ops.EdgeOp, a, b tensor.Kind) ops.OpInfo {
		return ops.OpInfo{EdgeOp: eop, GatherOp: ops.GatherCopyRHS, AKind: a, BKind: b, CKind: tensor.EdgeK}
	}
	return &ProgramIR{
		Values: []IRValue{
			{Rows: VertexRows, Cols: 8}, {Rows: VertexRows, Cols: 8, Const: true}, {Rows: VertexRows, Cols: 8},
			{Rows: EdgeRows, Cols: 8}, {Rows: EdgeRows, Cols: 1}, {Rows: VertexRows, Cols: 8},
		},
		Nodes: []IRNode{
			{Name: "input", Kind: KindInput, X: NoValue, Y: NoValue, Out: 0},
			{Name: "w", Kind: KindConst, X: NoValue, Y: NoValue, Out: 1},
			{Name: "xw", Kind: KindGEMM, X: 0, Y: 1, Out: 2},
			{Name: "aggr", Kind: KindGraph, X: 2, Y: 4, Out: 5, HasRegion: true,
				Op: ops.OpInfo{EdgeOp: ops.EdgeMul, GatherOp: ops.GatherSum, AKind: tensor.SrcV, BKind: tensor.EdgeK, CKind: tensor.DstV},
				Interior: []IRNode{
					{Name: "scores", Kind: KindGraph, X: 0, Y: 0, Out: 3, Op: edge(ops.EdgeAdd, tensor.SrcV, tensor.DstV)},
					{Name: "merge", Kind: KindOther, X: 3, Y: NoValue, Out: 4},
				}},
		},
		Input: 0, Output: 5,
	}
}

// attentionRows is what the compiler records for attentionPost: the GEMM
// carries its input; the head expands z and, for its interior, both expands
// and carries the input.
func attentionRows() []RowStep {
	return []RowStep{
		{Name: "xw", Reads: []RowRead{{Value: 0, Transfer: RowCarry}}},
		{Name: "aggr", Reads: []RowRead{{Value: 2, Transfer: RowExpand}, {Value: 0, Transfer: RowExpand}, {Value: 0, Transfer: RowCarry}}},
	}
}

func TestRowClosureRule(t *testing.T) {
	verify := func(post *ProgramIR, steps []RowStep) error {
		return VerifyRowClosure(RowClosureFacts{Subject: "toy", Post: post, Steps: steps})
	}
	t.Run("legal transfers are silent", func(t *testing.T) {
		if err := verify(attentionPost(), attentionRows()); err != nil {
			t.Fatalf("legal row transfers rejected: %v", err)
		}
		if err := verify(legalPost(), []RowStep{{Name: "aggr", Reads: []RowRead{{Value: 0, Transfer: RowExpand}}}}); err != nil {
			t.Fatalf("legal aggregation rejected: %v", err)
		}
	})
	t.Run("Src_V operand carried instead of expanded", func(t *testing.T) {
		steps := attentionRows()
		steps[1].Reads[0].Transfer = RowCarry
		wantRule(t, verify(attentionPost(), steps), RuleRowClosure)
	})
	t.Run("interior's external operand dropped", func(t *testing.T) {
		steps := attentionRows()
		steps[1].Reads = steps[1].Reads[:2] // the interior's Dst_V read of the input
		wantRule(t, verify(attentionPost(), steps), RuleRowClosure)
	})
	t.Run("a read no operand makes", func(t *testing.T) {
		steps := attentionRows()
		steps[0].Reads = append(steps[0].Reads, RowRead{Value: 2, Transfer: RowCarry})
		wantRule(t, verify(attentionPost(), steps), RuleRowClosure)
	})
	t.Run("a declining step needs no transfer", func(t *testing.T) {
		steps := attentionRows()
		steps[1] = RowStep{Name: "aggr", Declined: true}
		if err := verify(attentionPost(), steps); err != nil {
			t.Fatalf("a step recorded as declining was rejected: %v", err)
		}
	})
	t.Run("a step over edge rows cannot run row sets", func(t *testing.T) {
		post := attentionPost()
		// The interior becomes steps of their own: scores writes an Edge value.
		head := post.Nodes[3]
		post.Nodes = append(post.Nodes[:3:3], head.Interior[0], head.Interior[1], IRNode{
			Name: "aggr", Kind: KindGraph, X: 2, Y: 4, Out: 5, Op: head.Op,
		})
		steps := []RowStep{
			attentionRows()[0],
			{Name: "scores", Reads: []RowRead{{Value: 0, Transfer: RowExpand}, {Value: 0, Transfer: RowCarry}}},
			{Name: "merge", Declined: true},
			{Name: "aggr", Declined: true},
		}
		wantRule(t, verify(post, steps), RuleRowClosure)
		steps[1] = RowStep{Name: "scores", Declined: true}
		if err := verify(post, steps); err != nil {
			t.Fatalf("the recorded steps, all declining, were rejected: %v", err)
		}
		// The head reads a computed Edge value: it has no transfer either.
		steps[3] = RowStep{Name: "aggr", Reads: []RowRead{{Value: 2, Transfer: RowExpand}}}
		wantRule(t, verify(post, steps), RuleRowClosure)
	})
	t.Run("one record per compiled step", func(t *testing.T) {
		wantRule(t, verify(attentionPost(), attentionRows()[:1]), RuleRowClosure)
		wantRule(t, verify(attentionPost(), append(attentionRows(), RowStep{Name: "extra"})), RuleRowClosure)
	})
}
