package program

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Dense rewrites: the stage after region fusion that removes intermediates on
// the dense side of a program (uGrapher §5.2 taken to the steps around the
// graph operators; the three moves of 2110.09524). Three named passes run
// over the fused IR, each guarded by a verifier rule of its own in
// internal/analysis and recorded, accepted or rejected, in the notes
// CompiledProgram.Rewrites returns:
//
//   - split-weight (rule split-gemm): gemm(concat(x, y), W) becomes one GEMM
//     step carrying a second (operand, weight) pair, out = x·W[:Fx] + y·W[Fx:].
//     The weight halves are row-range views of the recorded constant — a
//     row-major matrix's rows are contiguous — and the second product
//     continues each element's add chain where the first left it
//     (tensor.GemmPackedRowsAccInto), so the result is bit-identical to the
//     concatenated GEMM. The concat step and its |V| x (Fx+Fy) buffer go.
//   - commute-aggregate (rule aggregate-commute): where that second operand is
//     an unweighted sum or mean gather of width F feeding a weight of width
//     N < F, aggr(h)·W = aggr(h·W): the gather is memory-bound, so its cost is
//     its width, and it runs on the N-wide projection instead. This one
//     reassociates the sum, so the result is ≡ the recorded program within
//     1e-4, not bit-identical; max/min gathers, weighted gathers, a chain
//     between aggregate and GEMM, and an aggregate read elsewhere are rejected.
//   - gemm-epilogue (rule dense-epilogue): an elementwise chain that is the
//     only reader of a GEMM's (or add-scaled's) output is applied to rows
//     [lo, hi) by the chunk that just computed them — the dense twin of a
//     region's Post — so the step and its second pass over the output go.
//     Bit-identical.
//
// Everything is an annotation on the seven existing node kinds: the traced
// benchmark replays compiled programs by switching on them.

// DenseInfo is what the dense-rewrite stage records on a node; which fields
// are set depends on the node kind. Build one with newDenseInfo: the zero
// ValueID is a real value.
type DenseInfo struct {
	// Post, on a GEMM or add-scaled node, is the elementwise chain absorbed
	// from the recorded unary nodes that followed it.
	Post []Unary
	// X2 and W2, on a GEMM node, are the second (operand, weight) pair of a
	// split-weight GEMM: out = X·Y + X2·W2. NoValue otherwise.
	X2, W2 ValueID
	// ViewOf, on a const node the stage created, is the recorded constant
	// whose rows [Lo, Hi) the node's Const views. NoValue otherwise.
	ViewOf ValueID
	Lo, Hi int
	// CommutedFrom, on a graph node, is the recorded aggregate's value this
	// narrower aggregate stands in for. NoValue otherwise.
	CommutedFrom ValueID
}

func newDenseInfo() *DenseInfo {
	return &DenseInfo{X2: NoValue, W2: NoValue, ViewOf: NoValue, CommutedFrom: NoValue}
}

// Rewrite pass names, as they appear in notes and provenance. The last is
// not a dense rewrite but shares the provenance channel: a fusion region that
// runs its interior inside the head's row chunks (regions.go).
const (
	PassSplitWeight      = "split-weight"
	PassCommuteAggregate = "commute-aggregate"
	PassGemmEpilogue     = "gemm-epilogue"
	PassRowResident      = "row-resident"
)

// RewriteNote is one decision of the dense-rewrite stage.
type RewriteNote struct {
	// Pass is the pass that looked at the node, Node the node's name.
	Pass, Node string
	// Accepted says whether the rewrite was applied; Rule is then the
	// verifier rule that guards it, and otherwise why it was not applied.
	Accepted bool
	Rule     string
	// BytesBefore and BytesAfter are what the affected steps stream through
	// memory per run in the recorded order and in the rewritten one (zero when
	// the pass was rejected before costing it).
	BytesBefore, BytesAfter int64
	// Detail is what else the line should say (a row-resident region's
	// interior stages and slab size).
	Detail string
}

// String renders the note as one provenance line.
func (n RewriteNote) String() string {
	verdict := "rejected: " + n.Rule
	if n.Accepted {
		verdict = "accepted under rule " + n.Rule
	}
	line := fmt.Sprintf("%s %s: %s", n.Pass, n.Node, verdict)
	if n.BytesBefore != 0 || n.BytesAfter != 0 {
		line += fmt.Sprintf(" (streams %.1f KiB, recorded order %.1f KiB)", float64(n.BytesAfter)/1024, float64(n.BytesBefore)/1024)
	}
	if n.Detail != "" {
		line += "; " + n.Detail
	}
	return line
}

// countRewrites folds the accepted notes into the three dense counters.
func (s *Stats) countRewrites(notes []RewriteNote) {
	for _, n := range notes {
		switch {
		case !n.Accepted:
		case n.Pass == PassGemmEpilogue:
			s.DenseEpilogues++
		case n.Pass == PassSplitWeight:
			s.SplitGemms++
		case n.Pass == PassCommuteAggregate:
			s.CommutedAggregates++
		}
	}
}

// rewriteArgs renders the notes as the compile span's arguments, one per
// decision; nil (a plain End) when there are none.
func rewriteArgs(notes []RewriteNote) map[string]string {
	if len(notes) == 0 {
		return nil
	}
	args := make(map[string]string, len(notes))
	for i, n := range notes {
		args[fmt.Sprintf("rewrite_%d", i)] = n.String()
	}
	return args
}

// Rewrites lists every decision of the dense-rewrite stage, accepted and
// rejected, in the order it was taken (nil when the scheduler's cost model
// rejects them all or the scheduler does not fuse).
func (cp *CompiledProgram) Rewrites() []RewriteNote { return cp.rewrites }

// Reasons a candidate is left alone. The last four are the commutation's
// legality conditions, which analysis.RuleAggregateCommute re-derives.
const (
	rejectCost          = "cost model: the rewritten order streams no fewer bytes"
	rejectMultiConsumer = "the intermediate has another reader"
	rejectNotLinear     = "gather is not sum or mean"
	rejectWeighted      = "aggregate is not an unweighted source gather"
	rejectChainBetween  = "an elementwise chain sits between aggregate and GEMM"
	rejectNotNarrowing  = "the weight does not narrow the aggregate"
)

// rewriter is the working state of one RewriteDense call: the node list with
// tombstones, nodes to emit ahead of a position, a growing value table, and
// the recorded values' reader counts and defining nodes.
type rewriter struct {
	p          *Program
	numV, numE int
	cm         CostModel
	nodes      []Node
	dead       []bool
	before     map[int][]Node
	values     []Value
	uses       []int
	def        map[ValueID]int
	notes      []RewriteNote
}

// RewriteDense runs the dense-rewrite passes over p (the output of
// FuseRegions) under cost model cm and returns the rewritten program — with
// its own value table when a pass added values — and every decision taken. A
// PairOnly model rejects everything: p comes back as it is.
func RewriteDense(p *Program, numV, numE int, cm CostModel) (*Program, []RewriteNote) {
	if cm.PairOnly {
		return p, nil
	}
	rw := &rewriter{
		p: p, numV: numV, numE: numE, cm: cm,
		nodes:  append([]Node(nil), p.Nodes...),
		dead:   make([]bool, len(p.Nodes)),
		before: map[int][]Node{},
		values: p.Values[:len(p.Values):len(p.Values)],
		uses:   useCounts(p),
		def:    make(map[ValueID]int, len(p.Nodes)),
	}
	for i := range rw.nodes {
		rw.def[rw.nodes[i].Out] = i
	}
	for i := range rw.nodes {
		if rw.nodes[i].Op == OpGEMM {
			rw.splitWeight(i)
		}
	}
	for i := range rw.nodes {
		if op := rw.nodes[i].Op; !rw.dead[i] && (op == OpGEMM || op == OpAddScaled) {
			rw.absorbEpilogue(i)
		}
	}
	out := &Program{
		Model: p.Model, InCols: p.InCols, Classes: p.Classes,
		Values: rw.values, Input: p.Input, Output: p.Output,
	}
	out.Nodes = make([]Node, 0, len(rw.nodes)+4)
	for i := range rw.nodes {
		out.Nodes = append(out.Nodes, rw.before[i]...)
		if !rw.dead[i] {
			out.Nodes = append(out.Nodes, rw.nodes[i])
		}
	}
	return out, rw.notes
}

func (rw *rewriter) bytes(v ValueID) int64 { return rw.values[v].bytes(rw.numV, rw.numE) }

// newValue adds a value to the table. Every value the stage creates has
// exactly one reader.
func (rw *rewriter) newValue(rows RowsClass, cols int, isConst bool) ValueID {
	rw.values = append(rw.values, Value{Rows: rows, Cols: cols, Const: isConst})
	rw.uses = append(rw.uses, 1)
	return ValueID(len(rw.values) - 1)
}

func (rw *rewriter) note(pass, node string, accepted bool, rule string, before, after int64) {
	rw.notes = append(rw.notes, RewriteNote{Pass: pass, Node: node, Accepted: accepted, Rule: rule, BytesBefore: before, BytesAfter: after})
}

// sole reports whether v is read exactly once and is not the program's
// result: the condition under which a rewrite may stop materialising it.
func (rw *rewriter) sole(v ValueID) bool { return rw.uses[v] == 1 && v != rw.p.Output }

// weightView emits, ahead of node at, a const node viewing rows [lo, hi) of
// the recorded weight w, and returns its value.
func (rw *rewriter) weightView(at int, w ValueID, lo, hi int) ValueID {
	wn := &rw.nodes[rw.def[w]]
	view := wn.Const.RowRange(lo, hi)
	v := rw.newValue(rw.values[w].Rows, view.Cols, true)
	d := newDenseInfo()
	d.ViewOf, d.Lo, d.Hi = w, lo, hi
	rw.before[at] = append(rw.before[at], Node{
		Op: OpConst, Name: fmt.Sprintf("%s[%d:%d]", wn.Name, lo, hi),
		X: NoValue, Y: NoValue, Out: v, Const: &view, Dense: d,
	})
	return v
}

// splitWeight is the split-weight pass at GEMM node i, and the
// commute-aggregate pass on the pair it creates.
func (rw *rewriter) splitWeight(i int) {
	n := &rw.nodes[i]
	ci, ok := rw.def[n.X]
	if !ok || rw.nodes[ci].Op != OpConcat {
		return
	}
	cat := n.X
	if !rw.sole(cat) {
		rw.note(PassSplitWeight, n.Name, false, rejectMultiConsumer, 0, 0)
		return
	}
	x, y, w := rw.nodes[ci].X, rw.nodes[ci].Y, n.Y
	fx, fy := rw.values[x].Cols, rw.values[y].Cols
	// What goes is the concatenation's write and the GEMM's read of it; the
	// operands are then read once, by the GEMM, instead of by the concat.
	gemmIO := rw.bytes(x) + rw.bytes(y) + rw.bytes(n.Out)
	rw.note(PassSplitWeight, n.Name, true, "split-gemm", gemmIO+2*rw.bytes(cat), gemmIO)
	rw.dead[ci] = true

	at := i
	ai, commute := rw.commutable(i, y, fy)
	if commute {
		at = ai
	}
	top, bottom := rw.weightView(at, w, 0, fx), rw.weightView(at, w, fx, fx+fy)
	if !commute {
		d := newDenseInfo()
		d.X2, d.W2 = y, bottom
		n.X, n.Y, n.Dense = x, top, d
		return
	}

	// aggr(h)·W_bottom = aggr(h·W_bottom): project first, aggregate the
	// narrow projection, add the two halves.
	a := &rw.nodes[ai]
	cols := rw.values[n.Out].Cols
	t := rw.newValue(VertexRows, cols, false)
	s := rw.newValue(VertexRows, cols, false)
	u := rw.newValue(VertexRows, cols, false)
	rw.before[ai] = append(rw.before[ai], Node{Op: OpGEMM, Name: n.Name + "_proj", X: a.X, Y: bottom, Out: t})
	d := newDenseInfo()
	d.CommutedFrom = y
	a.X, a.Out, a.Dense = t, s, d
	if a.Region != nil {
		// The pair rewrite's erased edge intermediate is the output's width.
		r := *a.Region
		r.SavedBytes = 2 * 4 * int64(rw.numE) * int64(cols)
		a.Region = &r
	}
	rw.before[i] = append(rw.before[i], Node{Op: OpGEMM, Name: n.Name, X: x, Y: top, Out: u})
	// The sum carries an annotation, empty until an epilogue joins it, so the
	// verifier takes it for the head of a rewrite and not for a recorded node.
	*n = Node{Op: OpAddScaled, Name: n.Name + "_sum", X: u, Y: s, Out: n.Out, Scale: 1, Dense: newDenseInfo()}
}

// commutable decides the commute-aggregate pass for the second operand y
// (width fy) of the split GEMM at node i: it returns the aggregate's node
// index and true when aggregating after the projection is legal and streams
// fewer bytes.
func (rw *rewriter) commutable(i int, y ValueID, fy int) (int, bool) {
	n := &rw.nodes[i]
	ai, ok := rw.def[y]
	if !ok {
		return 0, false
	}
	a := &rw.nodes[ai]
	reject := func(why string) (int, bool) {
		rw.note(PassCommuteAggregate, a.Name, false, why, 0, 0)
		return 0, false
	}
	switch {
	case a.Op == OpUnary:
		return reject(rejectChainBetween)
	case a.Op != OpGraph || a.GOp.CKind != tensor.DstV:
		return 0, false // nothing that aggregates: not a candidate
	case a.GOp.GatherOp != ops.GatherSum && a.GOp.GatherOp != ops.GatherMean:
		return reject(rejectNotLinear)
	case a.GOp.EdgeOp != ops.CopyLHS || a.GOp.AKind != tensor.SrcV || a.GOp.BKind != tensor.Null:
		return reject(rejectWeighted)
	case a.Region != nil && len(a.Region.PreX)+len(a.Region.PreY)+len(a.Region.Post) > 0:
		return reject(rejectChainBetween)
	case !rw.sole(y):
		return reject(rejectMultiConsumer)
	}
	cols := rw.values[n.Out].Cols
	if cols >= fy {
		return reject(rejectNotNarrowing)
	}
	// Bytes streamed by the steps that differ. Recorded order: the gather
	// reads one F-wide source row per edge and writes |V| x F, which the GEMM
	// reads back. Rewritten: the projection reads |V| x F and writes |V| x N,
	// the gather runs at width N, and the sum reads both halves and writes the
	// result; it also launches two more steps.
	rowF, rowN := 4*int64(fy), 4*int64(cols)
	numV, numE := int64(rw.numV), int64(rw.numE)
	before := numE*rowF + 2*numV*rowF
	after := numV*(rowF+rowN) + numE*rowN + numV*rowN + 3*numV*rowN + 2*rw.cm.LaunchOverheadBytes
	if after >= before {
		rw.note(PassCommuteAggregate, a.Name, false, rejectCost, before, after)
		return 0, false
	}
	rw.note(PassCommuteAggregate, a.Name, true, "aggregate-commute", before, after)
	return ai, true
}

// absorbEpilogue is the gemm-epilogue pass at GEMM or add-scaled node i:
// while the node's output is read only by an elementwise chain, the chain
// moves into the node and the node defines the chain's value.
func (rw *rewriter) absorbEpilogue(i int) {
	n := &rw.nodes[i]
	for {
		out := n.Out
		ci := -1
		for j := i + 1; j < len(rw.nodes) && ci < 0; j++ {
			if !rw.dead[j] && readsValue(&rw.nodes[j], out) {
				ci = j
			}
		}
		if ci < 0 || rw.nodes[ci].Op != OpUnary {
			return
		}
		u := &rw.nodes[ci]
		if !rw.sole(out) {
			rw.note(PassGemmEpilogue, u.Name, false, rejectMultiConsumer, 0, 0)
			return
		}
		if n.Dense == nil {
			n.Dense = newDenseInfo()
		}
		n.Dense.Post = append(n.Dense.Post, u.Chain...)
		// One pass over the output, reading and writing it, goes.
		rw.note(PassGemmEpilogue, u.Name, true, "dense-epilogue", 2*rw.bytes(out), 0)
		rw.dead[ci] = true
		n.Out = u.Out
	}
}

// corruptDense corrupts what the dense-rewrite stage recorded, on clones of
// the recorded and the compiled program (verify.go). Seed 0 gives the value
// under an absorbed chain a second recorded reader (dense-epilogue); seed 1
// shifts the row range of a split GEMM's weight view (split-gemm); seed 2
// gives the recorded aggregate behind a commuted gather a second reader
// (aggregate-commute).
func corruptDense(pre, post *Program, seed uint64) {
	for i := range post.Nodes {
		n := &post.Nodes[i]
		d := n.Dense
		switch {
		case d == nil:
		case seed == 0 && len(d.Post) > 0:
			// The recorded unary defining the node's value reads the erased
			// interior.
			for j := range pre.Nodes {
				if u := &pre.Nodes[j]; u.Out == n.Out && u.Op == OpUnary {
					phantomReader(pre, u.X)
					return
				}
			}
		case seed == 1 && d.ViewOf != NoValue:
			d.Lo++
			return
		case seed == 2 && d.CommutedFrom != NoValue:
			phantomReader(pre, d.CommutedFrom)
			return
		}
	}
}
