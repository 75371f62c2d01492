package program

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/tensor"
)

// The row-closure rule. A compiled program can produce a chosen set of output
// rows by running every step over only the rows its consumers need
// (rows.go): walking the steps backwards, each step turns the set S of its
// output rows that are needed into the rows of each operand it will read to
// write S. That per-operand read is all the walk knows about a step, so it is
// what must be right: a read that names too few rows makes a later step read
// a row no earlier step wrote, and nothing at run time would notice. This
// rule re-derives every step's reads from the operand kinds of the compiled
// IR alone (Table 4's addressing classes) and compares them with each step's
// recorded rowReads. It shares no code with the derivation it checks.
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
// A step with no vertex-row form (it writes an Edge value, or reads a
// computed one) must be recorded as declining, which makes the whole program
// answer a row run with a full pass — always sound.

// checkRowClosure checks the recorded row reads of steps, one per node of p
// that is neither the input nor a constant, in node order.
func checkRowClosure(p *Program, steps []step) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	k := 0
	for i := range p.Nodes {
		n := &p.Nodes[i]
		if n.Op == OpInput || n.Op == OpConst {
			continue
		}
		if k >= len(steps) {
			diags = append(diags, analysis.Diagnostic{
				Rule: analysis.RuleRowClosure, Node: n.Name,
				Msg:  "compiled node has no step",
				Hint: "compile one step per node that is neither the input nor a constant, in node order",
			})
			continue
		}
		diags = append(diags, checkRowStep(p, n, &steps[k])...)
		k++
	}
	if k < len(steps) {
		diags = append(diags, analysis.Diagnostic{
			Rule: analysis.RuleRowClosure, Node: steps[k].name,
			Msg: fmt.Sprintf("%d steps beyond the compiled nodes", len(steps)-k),
		})
	}
	return diags
}

// rowDemand re-derives the reads of node n from operand kinds. decidable is
// false when n has no vertex-row form.
func rowDemand(p *Program, n *Node) (reads []rowRead, decidable bool) {
	if !inTable(p, n.Out) || p.Values[n.Out].Rows == EdgeRows {
		return nil, false
	}
	decidable = true
	// read adds one operand of addressing kind k; dense operands pass Dst_V.
	read := func(v ValueID, k tensor.Kind) {
		if !inTable(p, v) || n.Region.interior(v) || p.Values[v].Const {
			return
		}
		switch {
		case p.Values[v].Rows == EdgeRows || k == tensor.EdgeK:
			decidable = false
		case k == tensor.SrcV:
			reads = append(reads, rowRead{v: v, expand: true})
		case k == tensor.DstV:
			reads = append(reads, rowRead{v: v})
		}
	}
	graph := func(g *Node) {
		read(g.X, g.GOp.AKind)
		read(g.Y, g.GOp.BKind)
	}
	if n.Op != OpGraph {
		for _, v := range n.binds() {
			read(v, tensor.DstV)
		}
		return reads, decidable
	}
	graph(n)
	if r := n.Region; r != nil {
		for i := range r.Interior {
			d := &r.Interior[i]
			if d.Op == OpGraph {
				graph(d)
				continue
			}
			// An interior elementwise node reads interior values; anything
			// else it reads has one row per edge.
			for _, v := range d.binds() {
				read(v, tensor.EdgeK)
			}
		}
	}
	return reads, decidable
}

// transfer names how a read maps rows, for diagnostics.
func transfer(r rowRead) string {
	if r.expand {
		return "expand"
	}
	return "carry"
}

// checkRowStep compares the recorded reads of one step with the re-derived
// ones, as multisets of (value, transfer).
func checkRowStep(p *Program, n *Node, st *step) []analysis.Diagnostic {
	want, decidable := rowDemand(p, n)
	if st.rowDeclined != "" {
		return nil // a full pass needs no reads
	}
	if !decidable {
		return []analysis.Diagnostic{{
			Rule: analysis.RuleRowClosure, Node: n.Name, Values: ids(n.Out),
			Msg:  "step has no vertex-row form (it writes or reads a computed Edge value) but is recorded as running row sets",
			Hint: "record the step as declining",
		}}
	}
	var diags []analysis.Diagnostic
	left := append([]rowRead(nil), st.rowReads...)
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
			diags = append(diags, analysis.Diagnostic{
				Rule: analysis.RuleRowClosure, Node: n.Name, Values: ids(w.v),
				Msg:  fmt.Sprintf("operand value %d is read by %s but no such read is recorded: a row run would read rows nothing wrote", w.v, transfer(w)),
				Hint: "derive Src_V operands as expand and Dst_V or dense operands as carry, a region interior's external operands included",
			})
		}
	}
	for _, r := range left {
		diags = append(diags, analysis.Diagnostic{
			Rule: analysis.RuleRowClosure, Node: n.Name, Values: ids(r.v),
			Msg: fmt.Sprintf("recorded %s of value %d matches no operand of the step", transfer(r), r.v),
		})
	}
	return diags
}
