package analysis

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Fusion-legality and DCE-soundness rules. The pass being checked
// (program/fuse.go) rewrites the recorded two-kernel aggregation form into
// fused single-kernel operators and then prunes dead nodes; these rules
// re-derive, from the pre- and post-fusion programs alone, that every
// rewrite was one the paper's §5.2 transformation permits and that nothing
// live was dropped.

// isMaterialise reports whether pre-program node n is the canonical
// message-materialise half of a decomposed aggregation: a non-reducing
// copy gather writing an edge tensor.
func isMaterialise(n *IRNode) bool {
	return n.Kind == KindGraph &&
		n.Op.CKind == tensor.EdgeK &&
		n.Op.GatherOp == ops.GatherCopyRHS
}

// isScatter reports whether pre-program node n is the canonical pure
// scatter: forward the edge tensor and reduce per destination vertex.
func isScatter(n *IRNode) bool {
	return n.Kind == KindGraph &&
		n.Op.EdgeOp == ops.CopyRHS &&
		n.Op.GatherOp.IsReduction() &&
		n.Op.AKind == tensor.Null &&
		n.Op.BKind == tensor.EdgeK &&
		n.Op.CKind == tensor.DstV
}

// elemsEqual reports element-wise equality of two unary chains.
func elemsEqual(a, b []Elem) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkFusion cross-checks the compiled program against the pre-fusion
// program: fused nodes must correspond to legal materialise+scatter pairs,
// region nodes must decompose back into recorded chains around a legal
// base, unfused nodes must match their recorded originals, and every live
// recorded node must be accounted for.
func checkFusion(pre, post *ProgramIR, numV, numE int) []Diagnostic {
	// Index the pre program: defining node per value, consumer counts, and
	// liveness (backwards from the output; the input node is always kept).
	preDef := make(map[int]int, len(pre.Nodes))
	uses := make(map[int]int)
	for i := range pre.Nodes {
		n := &pre.Nodes[i]
		preDef[n.Out] = i
		if n.X != NoValue {
			uses[n.X]++
		}
		if n.Y != NoValue {
			uses[n.Y]++
		}
	}
	liveVal := make(map[int]bool, len(pre.Values))
	liveVal[pre.Output] = true
	liveNode := make([]bool, len(pre.Nodes))
	for i := len(pre.Nodes) - 1; i >= 0; i-- {
		n := &pre.Nodes[i]
		if !liveVal[n.Out] && n.Kind != KindInput {
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
	accounted := make([]bool, len(pre.Nodes))
	dense, diags := checkDense(pre, post, preDef, uses, accounted, numV, numE)
	for pi := range post.Nodes {
		if !dense[pi] {
			diags = append(diags, checkNode(pre, &post.Nodes[pi], preDef, uses, accounted, numV, numE)...)
		}
	}

	// DCE soundness: every node live in the recorded program must survive,
	// either verbatim or folded into a fused pair.
	for i := range pre.Nodes {
		if liveNode[i] && !accounted[i] {
			n := &pre.Nodes[i]
			diags = append(diags, Diagnostic{
				Rule: RuleDCESoundness, Node: n.Name, Values: []int{n.Out},
				Msg:  fmt.Sprintf("recorded node is live (value %d reaches the output) but missing from the compiled program", n.Out),
				Hint: "dead-code elimination may only drop nodes the output cannot reach",
			})
		}
	}
	return diags
}

// checkNode verifies one compiled node the dense-rewrite stage left alone
// against the recorded program, marking the recorded nodes it stands for.
func checkNode(pre *ProgramIR, n *IRNode, preDef map[int]int, uses map[int]int, accounted []bool, numV, numE int) []Diagnostic {
	if len(n.Interior) > 0 {
		return checkRowRegion(pre, n, preDef, uses, accounted, numV, numE)
	}
	if n.HasRegion {
		return checkRegion(pre, n, preDef, uses, accounted, numV, numE, 0)
	}
	if n.Fused {
		return checkFusedPair(pre, n, preDef, uses, accounted)
	}
	// Unfused nodes must be byte-identical to the recorded node defining
	// the same value; anything else is a rewrite no pass performs (or a
	// rewritten node that lost its marker).
	i, ok := preDef[n.Out]
	if !ok {
		return []Diagnostic{{
			Rule: RuleDCESoundness, Node: n.Name, Values: []int{n.Out},
			Msg:  fmt.Sprintf("compiled node defines value %d that no recorded node defines", n.Out),
			Hint: "compilation must not invent values",
		}}
	}
	accounted[i] = true
	o := &pre.Nodes[i]
	if o.Kind != n.Kind || o.X != n.X || o.Y != n.Y || o.Scale != n.Scale ||
		(n.Kind == KindGraph && o.Op != n.Op) ||
		(n.Kind == KindUnary && !elemsEqual(o.Chain, n.Chain)) {
		return []Diagnostic{{
			Rule: RuleFusionPair, Node: n.Name, Values: []int{n.Out},
			Msg:  fmt.Sprintf("compiled node (%s %s) differs from recorded node (%s %s) without a fusion marker", n.Kind, n.Op, o.Kind, o.Op),
			Hint: "only marked materialise+scatter merges may rewrite a node",
		}}
	}
	return nil
}

// checkFusedPair verifies one fused node against the recorded pair it
// claims to merge, marking both recorded nodes accounted.
func checkFusedPair(pre *ProgramIR, n *IRNode, preDef map[int]int, uses map[int]int, accounted []bool) []Diagnostic {
	var diags []Diagnostic
	pair := func(msg, hint string) {
		diags = append(diags, Diagnostic{Rule: RuleFusionPair, Node: n.Name, Values: []int{n.Out}, Msg: msg, Hint: hint})
	}
	si, ok := preDef[n.Out]
	if !ok {
		pair(fmt.Sprintf("fused node defines value %d that no recorded node defines", n.Out),
			"a fused node must take over a recorded scatter's output")
		return diags
	}
	scat := &pre.Nodes[si]
	accounted[si] = true
	if !isScatter(scat) {
		pair(fmt.Sprintf("recorded node defining value %d is not a canonical scatter (%s)", n.Out, scat.Op),
			"only copy_rhs->reduce->Dst_V scatters may be fused")
		return diags
	}
	mi, ok := preDef[scat.Y]
	if !ok {
		pair(fmt.Sprintf("scatter input value %d has no recorded definition", scat.Y),
			"the fused pair's intermediate must be a recorded value")
		return diags
	}
	mat := &pre.Nodes[mi]
	accounted[mi] = true
	if !isMaterialise(mat) {
		pair(fmt.Sprintf("scatter input is not a canonical materialise (%s)", mat.Op),
			"only edge-tensor copy-gather materialises may be fused")
		return diags
	}

	// Single-consumer rule: merging is only legal when the |E| x F
	// intermediate has exactly one reader and is not itself the program
	// output — otherwise the fused kernel erases a value something else
	// needs.
	if uses[mat.Out] != 1 || mat.Out == pre.Output {
		what := fmt.Sprintf("%d consumers", uses[mat.Out])
		if mat.Out == pre.Output {
			what = "the program output"
		}
		diags = append(diags, Diagnostic{
			Rule: RuleFusionSingleConsumer, Node: n.Name, Values: []int{mat.Out},
			Msg:  fmt.Sprintf("fusion erased intermediate value %d which is %s", mat.Out, what),
			Hint: "fuse only single-consumer materialise+scatter pairs",
		})
	}

	// Merge consistency: the fused operator must read the materialise's
	// operands and combine its edge op with the scatter's reduction.
	want := ops.OpInfo{
		EdgeOp:   mat.Op.EdgeOp,
		GatherOp: scat.Op.GatherOp,
		AKind:    mat.Op.AKind,
		BKind:    mat.Op.BKind,
		CKind:    tensor.DstV,
	}
	if n.Kind != KindGraph || n.Op != want || n.X != mat.X || n.Y != mat.Y {
		pair(fmt.Sprintf("fused operator %s over values (%d,%d) does not merge the pair %s + %s over (%d,%d)",
			n.Op, n.X, n.Y, mat.Op, scat.Op, mat.X, mat.Y),
			"the fused op must be edge_op(mat) + gather_op(scat) over the materialise's operands")
	}
	return diags
}

// valueBytes is the storage of recorded value val on a graph of the given
// size, 0 for a reference outside the value table.
func valueBytes(pre *ProgramIR, val, numV, numE int) int64 {
	if val < 0 || val >= len(pre.Values) {
		return 0
	}
	v := pre.Values[val]
	rows := int64(numV)
	if v.Rows == EdgeRows {
		rows = int64(numE)
	}
	return 4 * rows * int64(v.Cols)
}

// regionOverheadBytes is the verifier's own per-absorbed-kernel launch
// allowance for the region cost bound. It is declared here, independent of
// program.DefaultCostModel, on purpose: the bound must not inherit a bug in
// the cost model it checks.
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
func checkRegion(pre *ProgramIR, n *IRNode, preDef map[int]int, uses map[int]int, accounted []bool, numV, numE int, interiorSaved int64) []Diagnostic {
	var diags []Diagnostic
	region := func(msg, hint string, vals ...int) {
		diags = append(diags, Diagnostic{Rule: RuleFusionRegion, Node: n.Name, Values: vals, Msg: msg, Hint: hint})
	}
	bytesOf := func(val int) int64 { return valueBytes(pre, val, numV, numE) }
	maxSaved := interiorSaved

	// interior checks that an erased in-region value was consumed exactly
	// once and is not the program output: anything else still needs the
	// value after the region runs.
	interior := func(val int) {
		if uses[val] != 1 || val == pre.Output {
			what := fmt.Sprintf("%d consumers", uses[val])
			if val == pre.Output {
				what = "the program output"
			}
			region(fmt.Sprintf("region erased interior value %d which has %s", val, what),
				"a region may only absorb values consumed exactly once inside it", val)
		}
	}

	// peel walks producer-wards from value `from`, matching recorded unary
	// nodes against the tail of chain until it is exhausted, and returns the
	// value the chain started from (or -1 on a mismatch, already diagnosed).
	//
	// Which value each step erases differs by direction. An epilogue peel
	// starts at the region output (live, legally multi-consumer) and erases
	// each peeled node's *input*; a prologue peel starts at the base
	// operator's erased operand and ends at the region's live operand, so it
	// erases the value it is *about to peel through*. The bound likewise: an
	// epilogue node saves at most one write+read round trip of its erased
	// input plus one launch; a prologue node saves at most the launch (its
	// source is still materialised for the staging copy).
	peel := func(chain []Elem, from int, what string, epilogue bool) int {
		rem := chain
		for len(rem) > 0 {
			if !epilogue {
				interior(from)
			}
			di, ok := preDef[from]
			if !ok {
				region(fmt.Sprintf("%s chain reaches value %d that no recorded node defines", what, from),
					"absorbed chains must decompose into recorded unary nodes", from)
				return -1
			}
			d := &pre.Nodes[di]
			if d.Kind != KindUnary || len(d.Chain) == 0 || len(d.Chain) > len(rem) ||
				!elemsEqual(d.Chain, rem[len(rem)-len(d.Chain):]) {
				region(fmt.Sprintf("%s chain tail does not match recorded node %q defining value %d", what, d.Name, from),
					"each absorbed chain segment must equal a recorded unary node's chain", from)
				return -1
			}
			accounted[di] = true
			rem = rem[:len(rem)-len(d.Chain)]
			if epilogue {
				interior(d.X)
				maxSaved += 2*bytesOf(d.X) + regionOverheadBytes
			} else {
				maxSaved += regionOverheadBytes
			}
			from = d.X
		}
		return from
	}

	// 1. Post epilogue: the region output must peel back through the
	// absorbed unary nodes to the base operator's output value.
	cur := peel(n.Post, n.Out, "post", true)
	if cur < 0 {
		return diags
	}

	// 2. The base operator.
	bi, ok := preDef[cur]
	if !ok {
		region(fmt.Sprintf("region base value %d has no recorded definition", cur),
			"the region must sit over a recorded graph operator", cur)
		return diags
	}
	var baseX, baseY int
	if n.Fused {
		scat := &pre.Nodes[bi]
		accounted[bi] = true
		if !isScatter(scat) {
			region(fmt.Sprintf("recorded node defining value %d is not a canonical scatter (%s)", cur, scat.Op),
				"a fused region base must be a copy_rhs->reduce->Dst_V scatter", cur)
			return diags
		}
		mi, ok := preDef[scat.Y]
		if !ok {
			region(fmt.Sprintf("scatter input value %d has no recorded definition", scat.Y),
				"the fused pair's intermediate must be a recorded value", scat.Y)
			return diags
		}
		mat := &pre.Nodes[mi]
		accounted[mi] = true
		if !isMaterialise(mat) {
			region(fmt.Sprintf("scatter input is not a canonical materialise (%s)", mat.Op),
				"only edge-tensor copy-gather materialises may anchor a fused region", scat.Y)
			return diags
		}
		if uses[mat.Out] != 1 || mat.Out == pre.Output {
			what := fmt.Sprintf("%d consumers", uses[mat.Out])
			if mat.Out == pre.Output {
				what = "the program output"
			}
			diags = append(diags, Diagnostic{
				Rule: RuleFusionSingleConsumer, Node: n.Name, Values: []int{mat.Out},
				Msg:  fmt.Sprintf("fusion erased intermediate value %d which is %s", mat.Out, what),
				Hint: "fuse only single-consumer materialise+scatter pairs",
			})
		}
		want := ops.OpInfo{
			EdgeOp:   mat.Op.EdgeOp,
			GatherOp: scat.Op.GatherOp,
			AKind:    mat.Op.AKind,
			BKind:    mat.Op.BKind,
			CKind:    tensor.DstV,
		}
		if n.Kind != KindGraph || n.Op != want {
			diags = append(diags, Diagnostic{
				Rule: RuleFusionPair, Node: n.Name, Values: []int{n.Out},
				Msg:  fmt.Sprintf("region base operator %s does not merge the pair %s + %s", n.Op, mat.Op, scat.Op),
				Hint: "the fused op must be edge_op(mat) + gather_op(scat)",
			})
		}
		baseX, baseY = mat.X, mat.Y
		maxSaved += 2*bytesOf(mat.Out) + regionOverheadBytes
	} else {
		base := &pre.Nodes[bi]
		accounted[bi] = true
		if base.Kind != KindGraph || base.Op != n.Op {
			region(fmt.Sprintf("region base (%s %s) disagrees with recorded node %q (%s %s)",
				n.Kind, n.Op, base.Name, base.Kind, base.Op),
				"an unfused region must keep the recorded graph operator verbatim", cur)
			return diags
		}
		baseX, baseY = base.X, base.Y
	}

	// 3. Operand prologues: the base's recorded operands must peel through
	// the absorbed chains down to the compiled node's operands.
	if got := peel(n.PreX, baseX, "preX", false); got >= 0 && got != n.X {
		region(fmt.Sprintf("preX chain starts at value %d but the region reads %d", got, n.X),
			"the absorbed operand chain must begin at the region's A operand", got, n.X)
	}
	if len(n.PreX) == 0 && baseX != n.X {
		region(fmt.Sprintf("region reads A operand %d but the recorded base read %d", n.X, baseX),
			"a region without a preX chain must keep the base operand", n.X, baseX)
	}
	if got := peel(n.PreY, baseY, "preY", false); got >= 0 && got != n.Y {
		region(fmt.Sprintf("preY chain starts at value %d but the region reads %d", got, n.Y),
			"the absorbed operand chain must begin at the region's B operand", got, n.Y)
	}
	if len(n.PreY) == 0 && baseY != n.Y {
		region(fmt.Sprintf("region reads B operand %d but the recorded base read %d", n.Y, baseY),
			"a region without a preY chain must keep the base operand", n.Y, baseY)
	}

	// 4. Cost sanity: the claimed saving must be non-negative and within
	// the recomputed bound (skipped when the check carries no graph sizes).
	if n.RegionSavedBytes < 0 {
		diags = append(diags, Diagnostic{
			Rule: RuleFusionRegionCost, Node: n.Name, Values: []int{n.Out},
			Msg:  fmt.Sprintf("region claims negative saved bytes (%d)", n.RegionSavedBytes),
			Hint: "the cost model must only accept regions with non-negative savings",
		})
	}
	if numV > 0 && numE > 0 && n.RegionSavedBytes > maxSaved {
		diags = append(diags, Diagnostic{
			Rule: RuleFusionRegionCost, Node: n.Name, Values: []int{n.Out},
			Msg:  fmt.Sprintf("region claims %d saved bytes, recomputed bound is %d", n.RegionSavedBytes, maxSaved),
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
func checkRowRegion(pre *ProgramIR, n *IRNode, preDef map[int]int, uses map[int]int, accounted []bool, numV, numE int) []Diagnostic {
	var diags []Diagnostic
	region := func(msg, hint string, vals ...int) {
		diags = append(diags, Diagnostic{Rule: RuleFusionRegion, Node: n.Name, Values: vals, Msg: msg, Hint: hint})
	}
	bytesOf := func(val int) int64 { return valueBytes(pre, val, numV, numE) }
	edgeRows := func(val int) bool {
		return val >= 0 && val < len(pre.Values) && pre.Values[val].Rows == EdgeRows
	}

	// The recorded nodes this region stands for: its interior nodes' and its
	// own base's.
	mine := make([]bool, len(accounted))
	var interiorSaved int64
	for i := range n.Interior {
		d := &n.Interior[i]
		diags = append(diags, checkNode(pre, d, preDef, uses, mine, numV, numE)...)
		interiorSaved += d.RegionSavedBytes + 2*bytesOf(d.Out) + regionOverheadBytes
	}
	diags = append(diags, checkRegion(pre, n, preDef, uses, mine, numV, numE, interiorSaved)...)
	for i, m := range mine {
		accounted[i] = accounted[i] || m
	}

	// Destination-local node kinds, decided from operand kinds.
	scatterOut := map[int]bool{}
	for i := range n.Interior {
		d := &n.Interior[i]
		switch {
		case len(d.Interior) > 0 || len(d.PreX)+len(d.PreY) > 0:
			region(fmt.Sprintf("interior node %q carries a staged prologue or an interior of its own", d.Name),
				"an interior node may only carry an absorbed epilogue", d.Out)
		case d.Kind == KindGraph && d.Op.CKind == tensor.EdgeK && !d.Op.GatherOp.IsReduction():
			// An edge-output operator: any operand kinds.
		case d.Kind == KindGraph && isScatter(d) && !d.Fused && !d.HasRegion:
			if !n.interior(d.Y) {
				region(fmt.Sprintf("interior scatter %q reduces value %d, which is not interior", d.Name, d.Y),
					"only the scatter of an interior Edge value is destination-local", d.Y)
			}
			scatterOut[d.Out] = true
		case (d.Kind == KindUnary || d.Kind == KindOther) && n.interior(d.X) && edgeRows(d.X):
			// An elementwise chain or head merge over an interior Edge value.
		default:
			region(fmt.Sprintf("interior node %q (%s %s) is not destination-local", d.Name, d.Kind, d.Op),
				"interior nodes are edge-output operators, pure scatters of interior Edge values, and elementwise chains or head merges over interior Edge values", d.Out)
		}
	}

	// Every recorded reader of an interior value is part of the region and,
	// of a scatter's result, reads it back as Dst_V.
	for j := range pre.Nodes {
		r := &pre.Nodes[j]
		for slot, v := range [2]int{r.X, r.Y} {
			if !n.interior(v) {
				continue
			}
			if !mine[j] {
				region(fmt.Sprintf("interior value %d is read by recorded node %q outside the region", v, r.Name),
					"an interior value has no storage: every reader must run inside the region's row chunks", v)
				continue
			}
			kind := r.Op.AKind
			if slot == 1 {
				kind = r.Op.BKind
			}
			if scatterOut[v] && (r.Kind != KindGraph || kind != tensor.DstV) {
				region(fmt.Sprintf("interior Dst_V value %d is read by %q as %s", v, r.Name, kind),
					"a scatter's result is resident for its own destination row only: it must be read back as Dst_V", v)
			}
		}
	}
	for i := range n.Interior {
		if v := n.Interior[i].Out; v == pre.Output {
			region(fmt.Sprintf("interior value %d is the program output", v),
				"the program's result needs storage", v)
		}
	}

	// The head: reducing into Dst_V, exactly one interior operand, bound as
	// its only Edge operand.
	ix, iy := n.interior(n.X), n.interior(n.Y)
	switch {
	case n.Kind != KindGraph || n.Op.CKind != tensor.DstV || !n.Op.GatherOp.IsReduction():
		region("the head of a row-resident region must reduce into a Dst_V value",
			"only an owner-per-row reduction consumes its operand row by row", n.Out)
	case ix == iy:
		region(fmt.Sprintf("head binds %d interior operands, want exactly one", map[bool]int{true: 2, false: 0}[ix]),
			"the head reads one interior Edge value and one ordinary vertex value", n.X, n.Y)
	case (ix && (n.Op.AKind != tensor.EdgeK || n.Op.BKind == tensor.EdgeK)) || (iy && (n.Op.BKind != tensor.EdgeK || n.Op.AKind == tensor.EdgeK)):
		region(fmt.Sprintf("head %s must bind its interior value as its only Edge operand", n.Op),
			"the row reducer resolves one index array per operand kind", n.X, n.Y)
	}
	return diags
}
