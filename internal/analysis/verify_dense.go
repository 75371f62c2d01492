package analysis

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Dense-rewrite rules. The stage being checked (program/rewrite.go) folds
// elementwise chains into the GEMM or add-scaled node before them, turns
// gemm(concat(x, y), W) into one GEMM over two (operand, weight) pairs, and
// moves an unweighted sum/mean gather behind the projection of its input.
// Each rewritten node carries an IRDense; these rules decompose every one
// back into the recorded nodes it claims to replace, from the pre- and
// post-rewrite programs alone.
//
// What each legal rewrite does to the numbers is part of its rule:
// dense-epilogue and split-gemm are bit-identical to the recorded program
// (the same operations on the same values in the same order — the split GEMM
// carries each element's ascending-k add chain across the two halves);
// aggregate-commute reassociates a sum, so it is equivalent within the
// suite's 1e-4 bound and no closer.

// denseCheck is the state of one checkDense run.
type denseCheck struct {
	pre, post  *ProgramIR
	preDef     map[int]int
	uses       map[int]int // recorded use counts
	postDef    map[int]int
	postUses   map[int]int
	accounted  []bool // recorded nodes a verified rewrite stands for
	handled    []bool // compiled nodes verified here, not by the fusion rules
	numV, numE int
	diags      []Diagnostic
}

func (c *denseCheck) fail(rule string, n *IRNode, msg, hint string, vals ...int) {
	c.diags = append(c.diags, Diagnostic{Rule: rule, Node: n.Name, Values: vals, Msg: msg, Hint: hint})
}

// colsOf is a value's width in vals, or -1 for a reference outside the table
// (ssa-form reports those; the rules here must only not index with them).
func colsOf(vals []IRValue, v int) int {
	if v < 0 || v >= len(vals) {
		return -1
	}
	return vals[v].Cols
}

// checkDense verifies every node the dense-rewrite stage annotated. It marks
// the recorded nodes those rewrites account for and returns which compiled
// nodes it verified, so checkFusion skips them.
func checkDense(pre, post *ProgramIR, preDef, uses map[int]int, accounted []bool, numV, numE int) ([]bool, []Diagnostic) {
	c := &denseCheck{
		pre: pre, post: post, preDef: preDef, uses: uses, accounted: accounted,
		postDef: make(map[int]int, len(post.Nodes)), postUses: map[int]int{},
		handled: make([]bool, len(post.Nodes)), numV: numV, numE: numE,
	}
	for i := range post.Nodes {
		n := &post.Nodes[i]
		c.postDef[n.Out] = i
		for _, v := range n.operands() {
			if v != NoValue {
				c.postUses[v]++
			}
		}
	}
	for i := range post.Nodes {
		n := &post.Nodes[i]
		if n.Dense != nil && (n.Kind == KindGEMM || n.Kind == KindAddScaled) {
			c.handled[i] = true
			c.checkHead(n)
		}
	}
	return c.handled, c.diags
}

// sole reports whether recorded value v had exactly one reader and is not the
// program's result: the condition for a rewrite to stop materialising it.
func (c *denseCheck) sole(v int) bool { return c.uses[v] == 1 && v != c.pre.Output }

// checkHead verifies one annotated GEMM or add-scaled node: its absorbed
// chain first, then whatever it became under that chain.
func (c *denseCheck) checkHead(n *IRNode) {
	// The absorbed chain must peel back from the node's value through
	// recorded unary nodes, each erased interior read by that unary alone.
	cur, rem := n.Out, n.Dense.Post
	for len(rem) > 0 {
		di, ok := c.preDef[cur]
		if !ok {
			c.fail(RuleDenseEpilogue, n, fmt.Sprintf("absorbed chain reaches value %d that no recorded node defines", cur),
				"an absorbed chain must decompose into recorded unary nodes", cur)
			return
		}
		d := &c.pre.Nodes[di]
		if d.Kind != KindUnary || len(d.Chain) == 0 || len(d.Chain) > len(rem) ||
			!elemsEqual(d.Chain, rem[len(rem)-len(d.Chain):]) {
			c.fail(RuleDenseEpilogue, n, fmt.Sprintf("absorbed chain tail does not match recorded node %q defining value %d", d.Name, cur),
				"each absorbed segment must equal a recorded unary node's chain", cur)
			return
		}
		c.accounted[di] = true
		rem = rem[:len(rem)-len(d.Chain)]
		if !c.sole(d.X) {
			c.fail(RuleDenseEpilogue, n, fmt.Sprintf("absorbed chain erased value %d, which has %d readers or is the program output", d.X, c.uses[d.X]),
				"absorb a chain only when it is the sole reader of the value under it", d.X)
		}
		cur = d.X
	}
	bi, ok := c.preDef[cur]
	if !ok {
		c.fail(RuleDenseEpilogue, n, fmt.Sprintf("value %d under the absorbed chain has no recorded definition", cur),
			"a rewritten dense node must stand for a recorded one", cur)
		return
	}
	base := &c.pre.Nodes[bi]
	switch {
	case n.Kind == KindGEMM && n.Dense.X2 != NoValue:
		cat := c.checkSplit(n, base, bi)
		if cat == nil {
			return
		}
		if n.X != cat.X || n.Dense.X2 != cat.Y {
			c.fail(RuleSplitGemm, n, fmt.Sprintf("split reads (%d, %d) but the recorded concatenation joined (%d, %d)", n.X, n.Dense.X2, cat.X, cat.Y),
				"the two operands must be the concatenation's, in its order", n.X, n.Dense.X2)
		}
		fx, fy := colsOf(c.pre.Values, cat.X), colsOf(c.pre.Values, cat.Y)
		c.checkView(n, n.Y, base.Y, 0, fx)
		c.checkView(n, n.Dense.W2, base.Y, fx, fx+fy)
	case n.Kind == KindAddScaled && c.commuted(n.Y):
		c.checkCommute(n, base, bi)
	case base.Kind != n.Kind || base.X != n.X || base.Y != n.Y || base.Scale != n.Scale:
		c.fail(RuleDenseEpilogue, n, fmt.Sprintf("node under the absorbed chain (%s over %d,%d) differs from recorded node %q (%s over %d,%d)",
			n.Kind, n.X, n.Y, base.Name, base.Kind, base.X, base.Y),
			"absorbing a chain must leave the node itself as recorded", cur)
	default:
		c.accounted[bi] = true
	}
}

// commuted reports whether compiled value v is defined by a gather the stage
// moved behind its projection.
func (c *denseCheck) commuted(v int) bool {
	i, ok := c.postDef[v]
	return ok && c.post.Nodes[i].Kind == KindGraph && c.post.Nodes[i].Dense != nil &&
		c.post.Nodes[i].Dense.CommutedFrom != NoValue
}

// checkSplit verifies that base is a recorded gemm(concat(x, y), W) whose
// concatenation only it read, accounts for both nodes, and returns the
// concat node — nil when the shape is not even that.
func (c *denseCheck) checkSplit(n, base *IRNode, bi int) *IRNode {
	ci, ok := c.preDef[base.X]
	if base.Kind != KindGEMM || !ok || c.pre.Nodes[ci].Kind != KindConcat {
		c.fail(RuleSplitGemm, n, fmt.Sprintf("recorded node %q is not a GEMM over a concatenation", base.Name),
			"only gemm(concat(x, y), W) splits into two (operand, weight) pairs", base.Out)
		return nil
	}
	c.accounted[bi], c.accounted[ci] = true, true
	cat := &c.pre.Nodes[ci]
	if !c.sole(cat.Out) {
		c.fail(RuleSplitGemm, n, fmt.Sprintf("split erased concatenation %d, which has %d readers or is the program output", cat.Out, c.uses[cat.Out]),
			"split only a concatenation the GEMM alone reads", cat.Out)
	}
	return cat
}

// checkView verifies that compiled value v is a constant viewing rows
// [lo, hi) of the recorded weight w.
func (c *denseCheck) checkView(n *IRNode, v, w, lo, hi int) {
	pi, ok := c.postDef[v]
	if !ok {
		c.fail(RuleSplitGemm, n, fmt.Sprintf("weight value %d has no defining node", v), "a split GEMM multiplies by views of the recorded weight", v)
		return
	}
	c.handled[pi] = true
	if wi, ok := c.preDef[w]; ok {
		c.accounted[wi] = true // the recorded weight lives on in its views
	}
	d := &c.post.Nodes[pi]
	if d.Kind != KindConst || d.Dense == nil || d.Dense.ViewOf != w || d.Dense.ViewLo != lo || d.Dense.ViewHi != hi ||
		colsOf(c.post.Values, v) != colsOf(c.pre.Values, w) || w < 0 || w >= len(c.pre.Values) || !c.pre.Values[w].Const {
		c.fail(RuleSplitGemm, n, fmt.Sprintf("weight value %d is not rows [%d,%d) of recorded constant %d", v, lo, hi, w),
			"the halves must be W[:Fx] for the first operand and W[Fx:Fx+Fy] for the second", v, w)
	}
}

// checkCommute verifies the four nodes a commutation leaves —
//
//	t = gemm(h, W[Fx:])   s' = aggr(t)   u = gemm(x, W[:Fx])   n = u + s'
//
// — against the recorded aggr feeding gemm(concat(x, aggr(h)), W).
func (c *denseCheck) checkCommute(n, base *IRNode, bi int) {
	bad := func(msg, hint string, vals ...int) { c.fail(RuleAggregateCommute, n, msg, hint, vals...) }
	gi := c.postDef[n.Y]
	g := &c.post.Nodes[gi]
	c.handled[gi] = true
	s := g.Dense.CommutedFrom

	cat := c.checkSplit(n, base, bi)
	if cat == nil {
		return
	}
	if s != cat.Y {
		bad(fmt.Sprintf("commuted aggregate stands for value %d, the concatenation's second operand is %d", s, cat.Y),
			"the aggregate moved must be the one the concatenation joined", s, cat.Y)
	}
	fx, fy := colsOf(c.pre.Values, cat.X), colsOf(c.pre.Values, cat.Y)
	// fresh reports whether v is a value the rewrite introduced and one node
	// reads: anything else could be observed by a node the rule does not see.
	fresh := func(v int) bool { return v >= len(c.pre.Values) && c.postUses[v] == 1 }
	plain := func(v int, what string) *IRNode {
		pi, ok := c.postDef[v]
		if !ok || !fresh(v) || c.post.Nodes[pi].Kind != KindGEMM || c.post.Nodes[pi].Dense != nil {
			bad(fmt.Sprintf("%s value %d is not a fresh, once-read, unannotated GEMM result", what, v),
				"a commutation's projections are new values only it reads", v)
			return nil
		}
		c.handled[pi] = true
		return &c.post.Nodes[pi]
	}
	if n.Scale != 1 {
		bad(fmt.Sprintf("the halves are summed with scale %v", n.Scale), "x·W[:Fx] + aggr(h·W[Fx:]) adds the halves unscaled")
	}
	if !fresh(n.Y) {
		bad(fmt.Sprintf("commuted aggregate value %d is recorded or read more than once", n.Y),
			"the narrow aggregate is a new value only the sum reads", n.Y)
	}
	if u := plain(n.X, "first-half"); u != nil {
		if u.X != cat.X {
			bad(fmt.Sprintf("first half projects value %d, the concatenation's first operand is %d", u.X, cat.X),
				"the first half is x·W[:Fx]", u.X, cat.X)
		}
		c.checkView(n, u.Y, base.Y, 0, fx)
	}
	t := plain(g.X, "projection")
	if t == nil {
		return
	}
	c.checkView(n, t.Y, base.Y, fx, fx+fy)

	// The aggregate itself must be the recorded one, reading the projection's
	// input: the fusion rules decide that on the node as it was recorded.
	recorded := *g
	recorded.Out, recorded.X, recorded.Dense = s, t.X, nil
	c.diags = append(c.diags, checkNode(c.pre, &recorded, c.preDef, c.uses, c.accounted, c.numV, c.numE)...)

	switch op := g.Op; {
	case op.GatherOp != ops.GatherSum && op.GatherOp != ops.GatherMean:
		bad(fmt.Sprintf("gather %s does not commute with a linear map", op.GatherOp), "only sum and mean gathers may move behind a projection", s)
	case op.EdgeOp != ops.CopyLHS || op.AKind != tensor.SrcV || op.BKind != tensor.Null ||
		colsOf(c.pre.Values, t.X) != colsOf(c.pre.Values, s):
		bad(fmt.Sprintf("aggregate %s is not an unweighted gather of a full-width source operand", op),
			"an edge weight or a broadcast operand does not factor through the projection", s)
	}
	if len(g.PreX)+len(g.PreY)+len(g.Post) > 0 {
		bad("an elementwise chain sits between the aggregate and the GEMM", "a non-linear chain does not commute with the projection", s)
	}
	if !c.sole(s) {
		bad(fmt.Sprintf("recorded aggregate %d has %d readers or is the program output", s, c.uses[s]),
			"commute only an aggregate the concatenation alone reads", s)
	}
	if wide, narrow := colsOf(c.pre.Values, s), colsOf(c.pre.Values, base.Out); narrow >= wide {
		bad(fmt.Sprintf("projection width %d does not narrow the aggregate's %d", narrow, wide),
			"aggregate first unless the weight narrows the rows gathered", s)
	}
}
