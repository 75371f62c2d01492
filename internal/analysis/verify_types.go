package analysis

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// SSA-form and operand-type rules. The Table-4 legality conditions are
// restated here from the paper, independently of ops.OpInfo.Validate, so a
// bug in the ops-layer validation cannot hide from the verifier.

// checkSSA verifies the DAG's well-formedness: every operand reference in
// range, every value defined at most once, every read after its definition,
// and the program boundaries defined.
func checkSSA(p *ProgramIR) []Diagnostic {
	var diags []Diagnostic
	def := make([]int, len(p.Values))
	for i := range def {
		def[i] = -1
	}
	inRange := func(v int) bool { return v >= 0 && v < len(p.Values) }
	// A row-resident region's interior nodes define their values just before
	// the head that reads them.
	var visit func(n *IRNode, i int)
	visit = func(n *IRNode, i int) {
		for j := range n.Interior {
			visit(&n.Interior[j], i)
		}
		for _, v := range n.binds() {
			if v == NoValue {
				continue
			}
			if !inRange(v) {
				diags = append(diags, Diagnostic{
					Rule: RuleSSAForm, Node: n.Name, Values: []int{v},
					Msg:  fmt.Sprintf("operand references value %d outside the value table (len %d)", v, len(p.Values)),
					Hint: "node operands must name recorded values",
				})
				continue
			}
			if def[v] < 0 {
				diags = append(diags, Diagnostic{
					Rule: RuleSSAForm, Node: n.Name, Values: []int{v},
					Msg:  fmt.Sprintf("value %d read at node %d before any definition", v, i),
					Hint: "nodes must stay in topological order",
				})
			}
		}
		if !inRange(n.Out) {
			diags = append(diags, Diagnostic{
				Rule: RuleSSAForm, Node: n.Name, Values: []int{n.Out},
				Msg:  fmt.Sprintf("node defines value %d outside the value table (len %d)", n.Out, len(p.Values)),
				Hint: "node outputs must name recorded values",
			})
			return
		}
		if def[n.Out] >= 0 {
			diags = append(diags, Diagnostic{
				Rule: RuleSSAForm, Node: n.Name, Values: []int{n.Out},
				Msg:  fmt.Sprintf("value %d defined twice (nodes %d and %d)", n.Out, def[n.Out], i),
				Hint: "SSA values have exactly one definition",
			})
			return
		}
		def[n.Out] = i
	}
	for i := range p.Nodes {
		visit(&p.Nodes[i], i)
	}
	for _, b := range [2]struct {
		what string
		v    int
	}{{"input", p.Input}, {"output", p.Output}} {
		if !inRange(b.v) || def[b.v] < 0 {
			diags = append(diags, Diagnostic{
				Rule: RuleSSAForm, Values: []int{b.v},
				Msg:  fmt.Sprintf("program %s value %d has no defining node", b.what, b.v),
				Hint: "programs must define their boundary values",
			})
		}
	}
	return diags
}

// rowsForKind is the addressing rule: Src_V/Dst_V operands read vertex
// tensors, Edge operands read edge tensors.
func rowsForKind(k tensor.Kind) Rows {
	if k == tensor.EdgeK {
		return EdgeRows
	}
	return VertexRows
}

// checkOperandTypes re-derives the Table-4 legality of every graph operator
// and checks each bound operand against its declared addressing kind.
func checkOperandTypes(p *ProgramIR) []Diagnostic {
	var diags []Diagnostic
	var visit func(n *IRNode)
	visit = func(n *IRNode) {
		for j := range n.Interior {
			visit(&n.Interior[j])
		}
		if n.Kind == KindGraph {
			diags = append(diags, checkGraphOp(p, n)...)
		}
	}
	for i := range p.Nodes {
		visit(&p.Nodes[i])
	}
	return diags
}

// checkGraphOp checks one graph operator node.
func checkGraphOp(p *ProgramIR, n *IRNode) []Diagnostic {
	var diags []Diagnostic
	bad := func(values []int, msg, hint string) {
		diags = append(diags, Diagnostic{Rule: RuleOperandType, Node: n.Name, Values: values, Msg: msg, Hint: hint})
	}
	op := n.Op

	// Output-kind rules (Table 4): message creation writes an edge tensor
	// with no reduction; aggregation reduces into a Dst_V tensor. Src_V and
	// Null outputs are never legal.
	switch op.CKind {
	case tensor.EdgeK:
		if op.GatherOp.IsReduction() {
			bad(nil, fmt.Sprintf("edge-tensor output with reducing gather %s", op.GatherOp),
				"message creation must not reduce; use a Dst_V output")
		}
	case tensor.DstV:
		if !op.GatherOp.IsReduction() {
			bad(nil, fmt.Sprintf("vertex-tensor output with non-reducing gather %s", op.GatherOp),
				"aggregation needs sum/max/min/mean")
		}
	default:
		bad(nil, fmt.Sprintf("output kind %s is not addressable", op.CKind),
			"outputs must be Edge or Dst_V")
	}

	// Operand-arity rules: binary edge ops read both operands, copies read
	// exactly the copied one.
	wantA := op.EdgeOp.IsBinary() || op.EdgeOp == ops.CopyLHS
	wantB := op.EdgeOp.IsBinary() || op.EdgeOp == ops.CopyRHS || op.EdgeOp == ops.EdgeNull
	if wantA && op.AKind == tensor.Null {
		bad(nil, fmt.Sprintf("edge op %s reads operand A but its kind is Null", op.EdgeOp),
			"bind a Src_V/Dst_V/Edge tensor to A")
	}
	if !wantA && op.AKind != tensor.Null {
		bad(nil, fmt.Sprintf("edge op %s ignores operand A but its kind is %s", op.EdgeOp, op.AKind),
			"drop the unused operand")
	}
	if wantB && op.BKind == tensor.Null {
		bad(nil, fmt.Sprintf("edge op %s reads operand B but its kind is Null", op.EdgeOp),
			"bind a Src_V/Dst_V/Edge tensor to B")
	}
	if !wantB && op.BKind != tensor.Null {
		bad(nil, fmt.Sprintf("edge op %s ignores operand B but its kind is %s", op.EdgeOp, op.BKind),
			"drop the unused operand")
	}

	// Operand-binding rules: each non-Null operand must reference a value
	// whose row class matches the addressing kind, and whose width matches
	// the output width or broadcasts (width 1).
	outCols := 0
	if n.Out >= 0 && n.Out < len(p.Values) {
		ov := p.Values[n.Out]
		outCols = ov.Cols
		if want := rowsForKind(op.CKind); ov.Rows != want && op.CKind != tensor.Null {
			bad([]int{n.Out}, fmt.Sprintf("output value is %s-rows but kind %s addresses %s-rows", ov.Rows, op.CKind, want),
				"store the output in a tensor of the addressed class")
		}
	}
	checkBinding := func(what string, v int, kind tensor.Kind) {
		if kind == tensor.Null {
			if v != NoValue {
				bad([]int{v}, fmt.Sprintf("operand %s bound but kind is Null", what),
					"unbind the operand or give it a kind")
			}
			return
		}
		if v == NoValue {
			bad(nil, fmt.Sprintf("operand %s has kind %s but no bound value", what, kind),
				"bind the operand")
			return
		}
		if v < 0 || v >= len(p.Values) {
			return // ssa-form already reported
		}
		val := p.Values[v]
		if want := rowsForKind(kind); val.Rows != want {
			bad([]int{v}, fmt.Sprintf("operand %s is %s-rows but kind %s addresses %s-rows", what, val.Rows, kind, want),
				"operand row class must match its addressing kind")
		}
		if outCols > 0 && val.Cols != outCols && val.Cols != 1 {
			bad([]int{v}, fmt.Sprintf("operand %s width %d neither matches output width %d nor broadcasts", what, val.Cols, outCols),
				"operand widths must equal the feature width or be 1")
		}
	}
	checkBinding("A", n.X, op.AKind)
	checkBinding("B", n.Y, op.BKind)
	return diags
}
