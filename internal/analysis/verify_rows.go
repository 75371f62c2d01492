package analysis

import (
	"fmt"

	"repro/internal/tensor"
)

// The row-closure rule. A compiled program can produce a chosen set of output
// rows by running every step over only the rows its consumers need
// (program/rows.go): walking the steps backwards, each step turns the set S of
// its output rows that are needed into the rows of each operand it will read
// to write S. That per-operand transfer is all the walk knows about a step, so
// it is what must be right: a transfer that names too few rows makes a later
// step read a row no earlier step wrote, and nothing at run time would notice.
// This rule re-derives every step's transfers from the operand kinds of the
// compiled IR alone (Table 4's addressing classes) and compares them with what
// the compiler recorded. It shares no code with the derivation it checks.
//
//   - a dense step (GEMM, elementwise chain, add-scaled, concat, head merge)
//     writes row r from row r of each operand: carry;
//   - a graph step writing Dst_V rows reads a Dst_V operand at the row itself
//     (carry), a Src_V operand at the sources of the row's in-edges (expand),
//     and an Edge operand at the row's in-edge ids — nothing to derive when it
//     is a recorded constant, no vertex row set at all when it is computed;
//   - the head of a row-resident region reads, besides its own operands, what
//     its interior nodes read from outside the region, each by its own kind;
//   - a constant needs no rows.
//
// A step with no vertex-row transfer (it writes an Edge value, or reads a
// computed one) must be recorded as declining, which makes the whole program
// answer a row run with a full pass — always sound.

// RowTransfer says which rows of an operand a step reads to write a set S of
// its output rows.
type RowTransfer uint8

const (
	// RowCarry: the rows of S themselves.
	RowCarry RowTransfer = iota
	// RowExpand: the source vertices of the in-edges of the rows of S.
	RowExpand
)

// String names the transfer.
func (t RowTransfer) String() string {
	if t == RowExpand {
		return "expand"
	}
	return "carry"
}

// RowRead is one operand read of a step: the value and the transfer the
// compiler recorded for it. A value read through two kinds (u_add_v of one
// tensor) appears twice.
type RowRead struct {
	Value    int
	Transfer RowTransfer
}

// RowStep is the compiler's record for one compiled step, in step order.
type RowStep struct {
	Name  string
	Reads []RowRead
	// Declined marks a step recorded as having no row-set form.
	Declined bool
}

// RowClosureFacts bundles what VerifyRowClosure inspects: the compiled IR and
// the recorded transfers, one RowStep per node of Post that is neither the
// input nor a constant, in node order.
type RowClosureFacts struct {
	Subject string
	Post    *ProgramIR
	Steps   []RowStep
}

// RowRules lists the rules VerifyRowClosure checks.
var RowRules = []string{RuleRowClosure}

// VerifyRowClosure runs the row-closure rule over f and returns a
// *VerifyError listing all violations, or nil when every recorded transfer is
// the one the operand kinds demand.
func VerifyRowClosure(f RowClosureFacts) error {
	var diags []Diagnostic
	k := 0
	for i := range f.Post.Nodes {
		n := &f.Post.Nodes[i]
		if n.Kind == KindInput || n.Kind == KindConst {
			continue
		}
		if k >= len(f.Steps) {
			diags = append(diags, Diagnostic{
				Rule: RuleRowClosure, Node: n.Name,
				Msg:  "compiled node has no recorded row transfer",
				Hint: "record one RowStep per compiled step, in step order",
			})
			continue
		}
		diags = append(diags, checkRowStep(f.Post, n, &f.Steps[k])...)
		k++
	}
	if k < len(f.Steps) {
		diags = append(diags, Diagnostic{
			Rule: RuleRowClosure, Node: f.Steps[k].Name,
			Msg: fmt.Sprintf("%d recorded row transfers beyond the compiled nodes", len(f.Steps)-k),
		})
	}
	return finish(diags)
}

// rowDemand re-derives the reads of node n from operand kinds. decidable is
// false when n has no vertex-row transfer.
func rowDemand(ir *ProgramIR, n *IRNode) (reads []RowRead, decidable bool) {
	valid := func(v int) bool { return v >= 0 && v < len(ir.Values) }
	if !valid(n.Out) || ir.Values[n.Out].Rows == EdgeRows {
		return nil, false
	}
	decidable = true
	// read adds one operand of addressing kind k; dense operands pass Dst_V.
	read := func(v int, k tensor.Kind) {
		if v == NoValue || !valid(v) || n.interior(v) || ir.Values[v].Const {
			return
		}
		switch {
		case ir.Values[v].Rows == EdgeRows || k == tensor.EdgeK:
			decidable = false
		case k == tensor.SrcV:
			reads = append(reads, RowRead{Value: v, Transfer: RowExpand})
		case k == tensor.DstV:
			reads = append(reads, RowRead{Value: v, Transfer: RowCarry})
		}
	}
	graph := func(g *IRNode) {
		read(g.X, g.Op.AKind)
		read(g.Y, g.Op.BKind)
	}
	if n.Kind != KindGraph {
		for _, v := range n.binds() {
			read(v, tensor.DstV)
		}
		return reads, decidable
	}
	graph(n)
	for i := range n.Interior {
		d := &n.Interior[i]
		if d.Kind == KindGraph {
			graph(d)
			continue
		}
		// An interior elementwise node reads interior values; anything else
		// it reads has one row per edge.
		for _, v := range d.binds() {
			read(v, tensor.EdgeK)
		}
	}
	return reads, decidable
}

// checkRowStep compares the recorded reads of one step with the re-derived
// ones, as multisets of (value, transfer).
func checkRowStep(ir *ProgramIR, n *IRNode, st *RowStep) []Diagnostic {
	want, decidable := rowDemand(ir, n)
	if st.Declined {
		return nil // a full pass needs no transfer
	}
	if !decidable {
		return []Diagnostic{{
			Rule: RuleRowClosure, Node: n.Name, Values: []int{n.Out},
			Msg:  "step has no vertex-row transfer (it writes or reads a computed Edge value) but is recorded as running row sets",
			Hint: "record the step as declining",
		}}
	}
	var diags []Diagnostic
	left := append([]RowRead(nil), st.Reads...)
	for _, w := range want {
		found := false
		for j, r := range left {
			if r == w {
				left = append(left[:j], left[j+1:]...)
				found = true
				break
			}
		}
		if !found {
			diags = append(diags, Diagnostic{
				Rule: RuleRowClosure, Node: n.Name, Values: []int{w.Value},
				Msg:  fmt.Sprintf("operand value %d is read by %s but no such transfer is recorded: a row run would read rows nothing wrote", w.Value, w.Transfer),
				Hint: "derive Src_V operands as expand and Dst_V or dense operands as carry, a region interior's external operands included",
			})
		}
	}
	for _, r := range left {
		diags = append(diags, Diagnostic{
			Rule: RuleRowClosure, Node: n.Name, Values: []int{r.Value},
			Msg: fmt.Sprintf("recorded %s of value %d matches no operand of the step", r.Transfer, r.Value),
		})
	}
	return diags
}
