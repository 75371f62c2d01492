package program

import (
	"fmt"
	"slices"

	"repro/internal/analysis"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Fusion-legality and DCE-soundness rules. The passes being checked
// (regions.go, then EliminateDead) rewrite the recorded two-kernel
// aggregation form into fused single-kernel operators and regions, and then
// prune dead nodes; these rules re-derive, from the pre- and post-fusion
// programs alone, that every rewrite was one the paper's §5.2 transformation
// permits and that nothing live was dropped.

// isMaterialise reports whether pre-program node n is the canonical
// message-materialise half of a decomposed aggregation: a non-reducing
// copy gather writing an edge tensor.
func isMaterialise(n *Node) bool {
	return n.Op == OpGraph &&
		n.GOp.CKind == tensor.EdgeK &&
		n.GOp.GatherOp == ops.GatherCopyRHS
}

// isScatter reports whether pre-program node n is the canonical pure
// scatter: forward the edge tensor and reduce per destination vertex.
func isScatter(n *Node) bool {
	return n.Op == OpGraph &&
		n.GOp.EdgeOp == ops.CopyRHS &&
		n.GOp.GatherOp.IsReduction() &&
		n.GOp.AKind == tensor.Null &&
		n.GOp.BKind == tensor.EdgeK &&
		n.GOp.CKind == tensor.DstV
}

// fusionCheck is the recorded program's index that the fusion and dense
// rules share: the defining node of each value, each value's reader count,
// and which recorded nodes a verified compiled node stands for.
type fusionCheck struct {
	pre        *Program
	preDef     map[ValueID]int
	uses       map[ValueID]int
	accounted  []bool
	numV, numE int
}

// checkFusion cross-checks the compiled program against the pre-fusion
// program: fused nodes must correspond to legal materialise+scatter pairs,
// region nodes must decompose back into recorded chains around a legal
// base, unfused nodes must match their recorded originals, and every live
// recorded node must be accounted for. numV and numE size the graph for the
// region cost bound, which is skipped when either is zero.
func checkFusion(pre, post *Program, numV, numE int) []analysis.Diagnostic {
	// Index the pre program: defining node per value, consumer counts, and
	// liveness (backwards from the output; the input node is always kept).
	fc := &fusionCheck{
		pre: pre, preDef: make(map[ValueID]int, len(pre.Nodes)), uses: make(map[ValueID]int),
		accounted: make([]bool, len(pre.Nodes)), numV: numV, numE: numE,
	}
	for i := range pre.Nodes {
		n := &pre.Nodes[i]
		fc.preDef[n.Out] = i
		if n.X != NoValue {
			fc.uses[n.X]++
		}
		if n.Y != NoValue {
			fc.uses[n.Y]++
		}
	}
	liveVal := make(map[ValueID]bool, len(pre.Values))
	liveVal[pre.Output] = true
	liveNode := make([]bool, len(pre.Nodes))
	for i := len(pre.Nodes) - 1; i >= 0; i-- {
		n := &pre.Nodes[i]
		if !liveVal[n.Out] && n.Op != OpInput {
			continue
		}
		liveNode[i] = true
		if n.X != NoValue {
			liveVal[n.X] = true
		}
		if n.Y != NoValue {
			liveVal[n.Y] = true
		}
	}

	// Nodes the dense-rewrite stage annotated answer to its own rules
	// (verify_dense.go); every other compiled node to the fusion rules.
	dense, diags := checkDense(fc, post)
	for pi := range post.Nodes {
		if !dense[pi] {
			diags = append(diags, fc.checkNode(&post.Nodes[pi], fc.accounted)...)
		}
	}

	// DCE soundness: every node live in the recorded program must survive,
	// either verbatim or folded into a fused pair.
	for i := range pre.Nodes {
		if liveNode[i] && !fc.accounted[i] {
			n := &pre.Nodes[i]
			diags = append(diags, analysis.Diagnostic{
				Rule: analysis.RuleDCESoundness, Node: n.Name, Values: ids(n.Out),
				Msg:  fmt.Sprintf("recorded node is live (value %d reaches the output) but missing from the compiled program", n.Out),
				Hint: "dead-code elimination may only drop nodes the output cannot reach",
			})
		}
	}
	return diags
}

// checkNode verifies one compiled node the dense-rewrite stage left alone
// against the recorded program, marking in accounted the recorded nodes it
// stands for.
func (fc *fusionCheck) checkNode(n *Node, accounted []bool) []analysis.Diagnostic {
	switch r := n.Region; {
	case r != nil && len(r.Interior) > 0:
		return fc.checkRowRegion(n, accounted)
	case r != nil:
		return fc.checkRegion(n, accounted, 0)
	case n.Fused:
		return fc.checkFusedPair(n, accounted)
	}
	// Unfused nodes must be byte-identical to the recorded node defining
	// the same value; anything else is a rewrite no pass performs (or a
	// rewritten node that lost its marker).
	i, ok := fc.preDef[n.Out]
	if !ok {
		return []analysis.Diagnostic{{
			Rule: analysis.RuleDCESoundness, Node: n.Name, Values: ids(n.Out),
			Msg:  fmt.Sprintf("compiled node defines value %d that no recorded node defines", n.Out),
			Hint: "compilation must not invent values",
		}}
	}
	accounted[i] = true
	o := &fc.pre.Nodes[i]
	if o.Op != n.Op || o.X != n.X || o.Y != n.Y || o.Scale != n.Scale ||
		(n.Op == OpGraph && o.GOp != n.GOp) ||
		(n.Op == OpUnary && !slices.Equal(o.Chain, n.Chain)) {
		return []analysis.Diagnostic{{
			Rule: analysis.RuleFusionPair, Node: n.Name, Values: ids(n.Out),
			Msg:  fmt.Sprintf("compiled node (%s %s) differs from recorded node (%s %s) without a fusion marker", n.Op, n.GOp, o.Op, o.GOp),
			Hint: "only marked materialise+scatter merges may rewrite a node",
		}}
	}
	return nil
}

// singleConsumer is the fusion-single-consumer rule for the intermediate a
// fused pair erased: merging is only legal when the |E| x F intermediate has
// exactly one reader and is not itself the program output — otherwise the
// fused kernel erases a value something else needs.
func (fc *fusionCheck) singleConsumer(n, mat *Node) []analysis.Diagnostic {
	if fc.uses[mat.Out] == 1 && mat.Out != fc.pre.Output {
		return nil
	}
	what := fmt.Sprintf("%d consumers", fc.uses[mat.Out])
	if mat.Out == fc.pre.Output {
		what = "the program output"
	}
	return []analysis.Diagnostic{{
		Rule: analysis.RuleFusionSingleConsumer, Node: n.Name, Values: ids(mat.Out),
		Msg:  fmt.Sprintf("fusion erased intermediate value %d which is %s", mat.Out, what),
		Hint: "fuse only single-consumer materialise+scatter pairs",
	}}
}

// merged is the operator a legal fusion of materialise mat and scatter scat
// computes: the materialise's edge op over its operands, reduced by the
// scatter's gather into Dst_V.
func merged(mat, scat *Node) ops.OpInfo {
	return ops.OpInfo{
		EdgeOp:   mat.GOp.EdgeOp,
		GatherOp: scat.GOp.GatherOp,
		AKind:    mat.GOp.AKind,
		BKind:    mat.GOp.BKind,
		CKind:    tensor.DstV,
	}
}

// checkFusedPair verifies one fused node against the recorded pair it
// claims to merge, marking both recorded nodes accounted.
func (fc *fusionCheck) checkFusedPair(n *Node, accounted []bool) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	pair := func(msg, hint string) {
		diags = append(diags, analysis.Diagnostic{Rule: analysis.RuleFusionPair, Node: n.Name, Values: ids(n.Out), Msg: msg, Hint: hint})
	}
	si, ok := fc.preDef[n.Out]
	if !ok {
		pair(fmt.Sprintf("fused node defines value %d that no recorded node defines", n.Out),
			"a fused node must take over a recorded scatter's output")
		return diags
	}
	scat := &fc.pre.Nodes[si]
	accounted[si] = true
	if !isScatter(scat) {
		pair(fmt.Sprintf("recorded node defining value %d is not a canonical scatter (%s)", n.Out, scat.GOp),
			"only copy_rhs->reduce->Dst_V scatters may be fused")
		return diags
	}
	mi, ok := fc.preDef[scat.Y]
	if !ok {
		pair(fmt.Sprintf("scatter input value %d has no recorded definition", scat.Y),
			"the fused pair's intermediate must be a recorded value")
		return diags
	}
	mat := &fc.pre.Nodes[mi]
	accounted[mi] = true
	if !isMaterialise(mat) {
		pair(fmt.Sprintf("scatter input is not a canonical materialise (%s)", mat.GOp),
			"only edge-tensor copy-gather materialises may be fused")
		return diags
	}
	diags = append(diags, fc.singleConsumer(n, mat)...)

	// Merge consistency: the fused operator must read the materialise's
	// operands and combine its edge op with the scatter's reduction.
	if n.Op != OpGraph || n.GOp != merged(mat, scat) || n.X != mat.X || n.Y != mat.Y {
		pair(fmt.Sprintf("fused operator %s over values (%d,%d) does not merge the pair %s + %s over (%d,%d)",
			n.GOp, n.X, n.Y, mat.GOp, scat.GOp, mat.X, mat.Y),
			"the fused op must be edge_op(mat) + gather_op(scat) over the materialise's operands")
	}
	return diags
}

// bytesOf is the storage of recorded value v on the checked graph, 0 for a
// reference outside the value table.
func (fc *fusionCheck) bytesOf(v ValueID) int64 {
	if !inTable(fc.pre, v) {
		return 0
	}
	return fc.pre.Values[v].bytes(fc.numV, fc.numE)
}

// regionOverheadBytes is the verifier's own per-absorbed-kernel launch
// allowance for the region cost bound. It is declared here, independent of
// DefaultCostModel, on purpose: the bound must not inherit a bug in the cost
// model it checks.
const regionOverheadBytes = 1 << 14

// checkRegion verifies one fusion-region node against the pre-fusion
// program it claims to absorb: the post/pre elementwise chains must
// decompose into recorded unary nodes, every erased interior value must
// have had exactly one consumer and not be the program output (no value may
// be read again after the region computes — the read-after-scatter rule
// generalised from pairs to regions), the region's base must be a recorded
// graph node or a legal fused pair, and the claimed byte savings must stay
// within an independently recomputed bound. All absorbed recorded nodes are
// marked accounted so DCE soundness sees them as surviving.
//
// interiorSaved is what the caller has already established the region's
// row-resident interior may claim (checkRowRegion); it joins the bound.
func (fc *fusionCheck) checkRegion(n *Node, accounted []bool, interiorSaved int64) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	region := func(msg, hint string, vals ...ValueID) {
		diags = append(diags, analysis.Diagnostic{Rule: analysis.RuleFusionRegion, Node: n.Name, Values: ids(vals...), Msg: msg, Hint: hint})
	}
	r := n.Region
	maxSaved := interiorSaved

	// interior checks that an erased in-region value was consumed exactly
	// once and is not the program output: anything else still needs the
	// value after the region runs.
	interior := func(val ValueID) {
		if fc.uses[val] != 1 || val == fc.pre.Output {
			what := fmt.Sprintf("%d consumers", fc.uses[val])
			if val == fc.pre.Output {
				what = "the program output"
			}
			region(fmt.Sprintf("region erased interior value %d which has %s", val, what),
				"a region may only absorb values consumed exactly once inside it", val)
		}
	}

	// peel walks producer-wards from value `from`, matching recorded unary
	// nodes against the tail of chain until it is exhausted, and returns the
	// value the chain started from (or NoValue on a mismatch, already
	// diagnosed).
	//
	// Which value each step erases differs by direction. An epilogue peel
	// starts at the region output (live, legally multi-consumer) and erases
	// each peeled node's *input*; a prologue peel starts at the base
	// operator's erased operand and ends at the region's live operand, so it
	// erases the value it is *about to peel through*. The bound likewise: an
	// epilogue node saves at most one write+read round trip of its erased
	// input plus one launch; a prologue node saves at most the launch (its
	// source is still materialised for the staging copy).
	peel := func(chain []Unary, from ValueID, what string, epilogue bool) ValueID {
		rem := chain
		for len(rem) > 0 {
			if !epilogue {
				interior(from)
			}
			di, ok := fc.preDef[from]
			if !ok {
				region(fmt.Sprintf("%s chain reaches value %d that no recorded node defines", what, from),
					"absorbed chains must decompose into recorded unary nodes", from)
				return NoValue
			}
			d := &fc.pre.Nodes[di]
			if d.Op != OpUnary || len(d.Chain) == 0 || len(d.Chain) > len(rem) ||
				!slices.Equal(d.Chain, rem[len(rem)-len(d.Chain):]) {
				region(fmt.Sprintf("%s chain tail does not match recorded node %q defining value %d", what, d.Name, from),
					"each absorbed chain segment must equal a recorded unary node's chain", from)
				return NoValue
			}
			accounted[di] = true
			rem = rem[:len(rem)-len(d.Chain)]
			if epilogue {
				interior(d.X)
				maxSaved += 2*fc.bytesOf(d.X) + regionOverheadBytes
			} else {
				maxSaved += regionOverheadBytes
			}
			from = d.X
		}
		return from
	}

	// 1. Post epilogue: the region output must peel back through the
	// absorbed unary nodes to the base operator's output value.
	cur := peel(r.Post, n.Out, "post", true)
	if cur == NoValue {
		return diags
	}

	// 2. The base operator.
	bi, ok := fc.preDef[cur]
	if !ok {
		region(fmt.Sprintf("region base value %d has no recorded definition", cur),
			"the region must sit over a recorded graph operator", cur)
		return diags
	}
	var baseX, baseY ValueID
	if n.Fused {
		scat := &fc.pre.Nodes[bi]
		accounted[bi] = true
		if !isScatter(scat) {
			region(fmt.Sprintf("recorded node defining value %d is not a canonical scatter (%s)", cur, scat.GOp),
				"a fused region base must be a copy_rhs->reduce->Dst_V scatter", cur)
			return diags
		}
		mi, ok := fc.preDef[scat.Y]
		if !ok {
			region(fmt.Sprintf("scatter input value %d has no recorded definition", scat.Y),
				"the fused pair's intermediate must be a recorded value", scat.Y)
			return diags
		}
		mat := &fc.pre.Nodes[mi]
		accounted[mi] = true
		if !isMaterialise(mat) {
			region(fmt.Sprintf("scatter input is not a canonical materialise (%s)", mat.GOp),
				"only edge-tensor copy-gather materialises may anchor a fused region", scat.Y)
			return diags
		}
		diags = append(diags, fc.singleConsumer(n, mat)...)
		if n.Op != OpGraph || n.GOp != merged(mat, scat) {
			diags = append(diags, analysis.Diagnostic{
				Rule: analysis.RuleFusionPair, Node: n.Name, Values: ids(n.Out),
				Msg:  fmt.Sprintf("region base operator %s does not merge the pair %s + %s", n.GOp, mat.GOp, scat.GOp),
				Hint: "the fused op must be edge_op(mat) + gather_op(scat)",
			})
		}
		baseX, baseY = mat.X, mat.Y
		maxSaved += 2*fc.bytesOf(mat.Out) + regionOverheadBytes
	} else {
		base := &fc.pre.Nodes[bi]
		accounted[bi] = true
		if base.Op != OpGraph || base.GOp != n.GOp {
			region(fmt.Sprintf("region base (%s %s) disagrees with recorded node %q (%s %s)",
				n.Op, n.GOp, base.Name, base.Op, base.GOp),
				"an unfused region must keep the recorded graph operator verbatim", cur)
			return diags
		}
		baseX, baseY = base.X, base.Y
	}

	// 3. Operand prologues: the base's recorded operands must peel through
	// the absorbed chains down to the compiled node's operands.
	if got := peel(r.PreX, baseX, "preX", false); got != NoValue && got != n.X {
		region(fmt.Sprintf("preX chain starts at value %d but the region reads %d", got, n.X),
			"the absorbed operand chain must begin at the region's A operand", got, n.X)
	}
	if len(r.PreX) == 0 && baseX != n.X {
		region(fmt.Sprintf("region reads A operand %d but the recorded base read %d", n.X, baseX),
			"a region without a preX chain must keep the base operand", n.X, baseX)
	}
	if got := peel(r.PreY, baseY, "preY", false); got != NoValue && got != n.Y {
		region(fmt.Sprintf("preY chain starts at value %d but the region reads %d", got, n.Y),
			"the absorbed operand chain must begin at the region's B operand", got, n.Y)
	}
	if len(r.PreY) == 0 && baseY != n.Y {
		region(fmt.Sprintf("region reads B operand %d but the recorded base read %d", n.Y, baseY),
			"a region without a preY chain must keep the base operand", n.Y, baseY)
	}

	// 4. Cost sanity: the claimed saving must be non-negative and within
	// the recomputed bound (skipped when the check carries no graph sizes).
	if r.SavedBytes < 0 {
		diags = append(diags, analysis.Diagnostic{
			Rule: analysis.RuleFusionRegionCost, Node: n.Name, Values: ids(n.Out),
			Msg:  fmt.Sprintf("region claims negative saved bytes (%d)", r.SavedBytes),
			Hint: "the cost model must only accept regions with non-negative savings",
		})
	}
	if fc.numV > 0 && fc.numE > 0 && r.SavedBytes > maxSaved {
		diags = append(diags, analysis.Diagnostic{
			Rule: analysis.RuleFusionRegionCost, Node: n.Name, Values: ids(n.Out),
			Msg:  fmt.Sprintf("region claims %d saved bytes, recomputed bound is %d", r.SavedBytes, maxSaved),
			Hint: "claimed savings must not exceed the absorbed nodes' traffic plus launch overhead",
		})
	}
	return diags
}

// checkRowRegion verifies the head of a row-resident region: a region like any
// other around its own base operator (checkRegion), whose Edge operand is
// computed inside its row chunks by the interior nodes. Each interior node is
// first verified as the compiled node it is (a recorded node kept verbatim, or
// an edge-output operator with the epilogue it absorbed), which also tells
// which recorded nodes the region stands for. Then the closure is re-derived
// from operand kinds alone: every interior node is destination-local — an
// edge-output operator, the pure scatter of an interior Edge value, an
// elementwise chain or a head merge over one — a scatter's Dst_V result is
// only ever read back through a Dst_V operand (read as Src_V it would be
// another row's, which the chunk has not computed), no interior value is read
// by a recorded node outside the region or is the program's output, and the
// head binds exactly one interior value, as its only Edge operand.
func (fc *fusionCheck) checkRowRegion(n *Node, accounted []bool) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	region := func(msg, hint string, vals ...ValueID) {
		diags = append(diags, analysis.Diagnostic{Rule: analysis.RuleFusionRegion, Node: n.Name, Values: ids(vals...), Msg: msg, Hint: hint})
	}
	r, pre := n.Region, fc.pre
	edgeRows := func(v ValueID) bool { return inTable(pre, v) && pre.Values[v].Rows == EdgeRows }

	// The recorded nodes this region stands for: its interior nodes' and its
	// own base's.
	mine := make([]bool, len(accounted))
	var interiorSaved int64
	for i := range r.Interior {
		d := &r.Interior[i]
		diags = append(diags, fc.checkNode(d, mine)...)
		if d.Region != nil {
			interiorSaved += d.Region.SavedBytes
		}
		interiorSaved += 2*fc.bytesOf(d.Out) + regionOverheadBytes
	}
	diags = append(diags, fc.checkRegion(n, mine, interiorSaved)...)
	for i, m := range mine {
		accounted[i] = accounted[i] || m
	}

	// Destination-local node kinds, decided from operand kinds.
	scatterOut := map[ValueID]bool{}
	for i := range r.Interior {
		d := &r.Interior[i]
		switch dr := d.Region; {
		case dr != nil && (len(dr.Interior) > 0 || len(dr.PreX)+len(dr.PreY) > 0):
			region(fmt.Sprintf("interior node %q carries a staged prologue or an interior of its own", d.Name),
				"an interior node may only carry an absorbed epilogue", d.Out)
		case d.Op == OpGraph && d.GOp.CKind == tensor.EdgeK && !d.GOp.GatherOp.IsReduction():
			// An edge-output operator: any operand kinds.
		case isScatter(d) && !d.Fused && dr == nil:
			if !r.interior(d.Y) {
				region(fmt.Sprintf("interior scatter %q reduces value %d, which is not interior", d.Name, d.Y),
					"only the scatter of an interior Edge value is destination-local", d.Y)
			}
			scatterOut[d.Out] = true
		case (d.Op == OpUnary || d.Op == OpHeadMerge) && r.interior(d.X) && edgeRows(d.X):
			// An elementwise chain or head merge over an interior Edge value.
		default:
			region(fmt.Sprintf("interior node %q (%s %s) is not destination-local", d.Name, d.Op, d.GOp),
				"interior nodes are edge-output operators, pure scatters of interior Edge values, and elementwise chains or head merges over interior Edge values", d.Out)
		}
	}

	// Every recorded reader of an interior value is part of the region and,
	// of a scatter's result, reads it back as Dst_V.
	for j := range pre.Nodes {
		rd := &pre.Nodes[j]
		for slot, v := range [2]ValueID{rd.X, rd.Y} {
			if !r.interior(v) {
				continue
			}
			if !mine[j] {
				region(fmt.Sprintf("interior value %d is read by recorded node %q outside the region", v, rd.Name),
					"an interior value has no storage: every reader must run inside the region's row chunks", v)
				continue
			}
			kind := rd.GOp.AKind
			if slot == 1 {
				kind = rd.GOp.BKind
			}
			if scatterOut[v] && (rd.Op != OpGraph || kind != tensor.DstV) {
				region(fmt.Sprintf("interior Dst_V value %d is read by %q as %s", v, rd.Name, kind),
					"a scatter's result is resident for its own destination row only: it must be read back as Dst_V", v)
			}
		}
	}
	for i := range r.Interior {
		if v := r.Interior[i].Out; v == pre.Output {
			region(fmt.Sprintf("interior value %d is the program output", v),
				"the program's result needs storage", v)
		}
	}

	// The head: reducing into Dst_V, exactly one interior operand, bound as
	// its only Edge operand.
	ix, iy := r.interior(n.X), r.interior(n.Y)
	op := n.GOp
	switch {
	case n.Op != OpGraph || op.CKind != tensor.DstV || !op.GatherOp.IsReduction():
		region("the head of a row-resident region must reduce into a Dst_V value",
			"only an owner-per-row reduction consumes its operand row by row", n.Out)
	case ix == iy:
		region(fmt.Sprintf("head binds %d interior operands, want exactly one", map[bool]int{true: 2, false: 0}[ix]),
			"the head reads one interior Edge value and one ordinary vertex value", n.X, n.Y)
	case (ix && (op.AKind != tensor.EdgeK || op.BKind == tensor.EdgeK)) || (iy && (op.BKind != tensor.EdgeK || op.AKind == tensor.EdgeK)):
		region(fmt.Sprintf("head %s must bind its interior value as its only Edge operand", op),
			"the row reducer resolves one index array per operand kind", n.X, n.Y)
	}
	return diags
}
