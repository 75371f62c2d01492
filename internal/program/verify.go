package program

import (
	"errors"
	"slices"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// The bridge to the static verifier. The program-level rules (verify_*.go)
// read the compiled artifacts themselves — the recorded program, the compiled
// one, the buffer plan and each step's row reads — and share nothing with the
// passes they check but the IR's types and the accessors ir.go declares on
// them (TestVerifierIndependentOfPasses). The faultinject corruption points
// corrupt a deep clone of what the rules read, made only when a point is
// armed: the compile artifacts stay intact, so the fault-injection suite can
// prove every rule fires while a corrupted compilation still fails safely.

// programCorruptions are the points that corrupt what the program-level
// rules read.
var programCorruptions = [...]faultinject.Point{
	faultinject.CorruptOperandKind, faultinject.CorruptFusion, faultinject.CorruptFusionRegion,
	faultinject.CorruptBufferPlan, faultinject.CorruptDenseRewrite,
}

// verifyCompilation runs the mandatory program-level verification for one
// compilation: pre is the recorded program, post the fused+pruned one, plan
// its buffer plan on a graph of numV vertices and numE edges. Compile passes
// all three; the rule tests pass a nil pre or plan (see checkProgram) and arm
// no corruption point.
func verifyCompilation(pre, post *Program, plan *BufferPlan, numV, numE int) error {
	for _, pt := range programCorruptions {
		if faultinject.Armed(pt) {
			pre, post, plan = pre.clone(), post.clone(), plan.clone()
			corrupt(pre, post, plan)
			break
		}
	}
	return analysis.ProgramVerified(checkProgram(pre, post, plan, numV, numE))
}

// clone is a deep copy of b.
func (b *BufferPlan) clone() *BufferPlan {
	c := *b
	c.Assign, c.InPlace, c.SlotFloats = slices.Clone(b.Assign), slices.Clone(b.InPlace), slices.Clone(b.SlotFloats)
	c.Def, c.LastUse = slices.Clone(b.Def), slices.Clone(b.LastUse)
	return &c
}

// checkProgram runs every program-level rule, in analysis.ProgramRules
// order. A nil pre skips the fusion, dense and DCE rules, a nil plan the
// buffer rules; zero graph sizes skip the region cost bound.
func checkProgram(pre, post *Program, plan *BufferPlan, numV, numE int) []analysis.Diagnostic {
	diags := append(checkSSA(post), checkOperandTypes(post)...)
	if pre != nil {
		diags = append(diags, checkFusion(pre, post, numV, numE)...)
	}
	if plan != nil {
		diags = append(diags, checkBuffers(post, plan, numV, numE)...)
	}
	return diags
}

// verifyRowClosure runs the mandatory row-closure rule over the steps'
// recorded row reads.
func (cp *CompiledProgram) verifyRowClosure() error {
	steps := cp.steps
	if faultinject.Armed(faultinject.CorruptRowClosure) {
		steps = slices.Clone(steps)
		for i := range steps {
			steps[i].rowReads = slices.Clone(steps[i].rowReads)
		}
		if faultinject.Fire(faultinject.CorruptRowClosure) {
			corruptRows(cp.prog, steps, faultinject.SpecOf(faultinject.CorruptRowClosure).Seed)
		}
	}
	return analysis.Finish(checkRowClosure(cp.prog, steps))
}

// verifyStepLowerings cross-checks each lowered graph kernel's declared
// write-conflict discipline against the re-derived analysis, collecting
// diagnostics instead of failing fast (used by both Compile and Verify).
func verifyStepLowerings(cp *CompiledProgram) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for i := range cp.steps {
		st := &cp.steps[i]
		if st.kern == nil {
			continue
		}
		cr, ok := st.kern.(core.ConflictReporter)
		if !ok {
			continue
		}
		p := st.kern.Plan()
		err := analysis.VerifyLowering(analysis.PlanFacts{
			Op:             p.Op,
			Schedule:       p.Schedule.Strategy.Code(),
			VertexParallel: p.Schedule.Strategy.VertexParallel(),
			NeedsAtomic:    p.NeedsAtomic,
		}, cr.ConflictHandling())
		var ve *analysis.VerifyError
		if errors.As(err, &ve) {
			diags = append(diags, ve.Diags...)
		}
	}
	return diags
}

// waveFactsOf builds the wave verifier's view of the compiled schedule.
// Effects, edges and waves are all fresh copies, so the corruption point
// mutates only the view — the compiled artifacts stay intact.
func (cp *CompiledProgram) waveFactsOf() analysis.WaveFacts {
	f := analysis.WaveFacts{
		Subject: cp.prog.Model,
		Steps:   cp.stepEffects(),
		Edges:   append([]analysis.DepEdge(nil), cp.depEdges...),
		Waves:   make([][]int, len(cp.waves)),
	}
	for i, w := range cp.waves {
		f.Waves[i] = append([]int(nil), w...)
	}
	return f
}

// verifyWaveSchedule runs the mandatory wave rules (step-deps-sound,
// wave-legal) over the compiled dependence DAG and wave schedule.
func (cp *CompiledProgram) verifyWaveSchedule() error {
	f := cp.waveFactsOf()
	if faultinject.Fire(faultinject.CorruptWaveSchedule) {
		corruptWaves(&f, faultinject.SpecOf(faultinject.CorruptWaveSchedule).Seed)
	}
	return analysis.VerifyWaves(f)
}

// Verify re-runs the full static analysis over the compiled program — the
// program-level rules, the per-kernel lowering cross-check, the wave rules
// and the row-closure rule — and returns a structured report. Compilation already ran the same
// checks and failed on violations, so a clean compile reports clean here
// unless a corruption point is armed.
func (cp *CompiledProgram) Verify() analysis.Report {
	rep := analysis.Report{
		Subject:      cp.prog.Model,
		RulesChecked: slices.Concat(analysis.ProgramRules, []string{analysis.RuleWriteConflict}, analysis.WaveRules, analysis.RowRules),
	}
	err := verifyCompilation(cp.pre, cp.prog, cp.plan, cp.g.NumVertices(), cp.g.NumEdges())
	var ve *analysis.VerifyError
	if errors.As(err, &ve) {
		rep.Diags = append(rep.Diags, ve.Diags...)
	}
	rep.Diags = append(rep.Diags, verifyStepLowerings(cp)...)
	if errors.As(cp.verifyWaveSchedule(), &ve) {
		rep.Diags = append(rep.Diags, ve.Diags...)
	}
	if errors.As(cp.verifyRowClosure(), &ve) {
		rep.Diags = append(rep.Diags, ve.Diags...)
	}
	return rep
}

// corrupt applies the armed program corruptions to clones of what the
// program-level rules read. Each point's Spec.Seed selects the corrupted rule
// variant (see the faultinject.Corrupt* docs).
func corrupt(pre, post *Program, plan *BufferPlan) {
	seed := func(p faultinject.Point) uint64 { return faultinject.SpecOf(p).Seed }
	if faultinject.Fire(faultinject.CorruptOperandKind) {
		corruptOperand(post, seed(faultinject.CorruptOperandKind))
	}
	if faultinject.Fire(faultinject.CorruptFusion) {
		corruptFusion(pre, post, plan, seed(faultinject.CorruptFusion))
	}
	if faultinject.Fire(faultinject.CorruptFusionRegion) {
		corruptRegion(pre, post, seed(faultinject.CorruptFusionRegion))
	}
	if faultinject.Fire(faultinject.CorruptBufferPlan) {
		corruptBuffers(post, plan, seed(faultinject.CorruptBufferPlan))
	}
	if faultinject.Fire(faultinject.CorruptDenseRewrite) {
		corruptDense(pre, post, seed(faultinject.CorruptDenseRewrite))
	}
}

// phantomReader appends to the recorded program a dead unary node reading v:
// a second consumer no rewrite that erased v could have honoured.
func phantomReader(pre *Program, v ValueID) {
	pre.Values = append(pre.Values, pre.Values[v])
	pre.Nodes = append(pre.Nodes, Node{
		Name: "phantom", Op: OpUnary,
		X: v, Y: NoValue, Out: ValueID(len(pre.Values) - 1),
		Chain: []Unary{{}},
	})
}

// firstGraphNode returns the index of the first graph node in p, or -1.
func firstGraphNode(p *Program) int {
	for i := range p.Nodes {
		if p.Nodes[i].Op == OpGraph {
			return i
		}
	}
	return -1
}

// corruptOperand corrupts the compiled program's typing. Seed 0 flips a graph
// operand's addressing class; seed 1 points a node outside the value table.
func corruptOperand(post *Program, seed uint64) {
	i := firstGraphNode(post)
	if i < 0 {
		return
	}
	n := &post.Nodes[i]
	if seed == 1 {
		n.Out = ValueID(len(post.Values) + 7)
		return
	}
	flip := func(k tensor.Kind) tensor.Kind {
		if k == tensor.EdgeK {
			return tensor.SrcV
		}
		return tensor.EdgeK
	}
	if n.GOp.AKind != tensor.Null {
		n.GOp.AKind = flip(n.GOp.AKind)
	} else {
		n.GOp.BKind = flip(n.GOp.BKind)
	}
}

// corruptFusion corrupts the fusion bookkeeping. Seed 0 mis-merges a fused
// operator (or toggles a Fused marker when no pair fused); seed 1 declares a
// fused intermediate to be the program output; seed 2 drops a live node from
// the compiled program.
func corruptFusion(pre, post *Program, plan *BufferPlan, seed uint64) {
	switch seed {
	case 1:
		// Find the recorded scatter: its Y operand is the intermediate the
		// fusion pass erased. (Looked up in the recorded program directly,
		// since a fused node's output may have moved past an absorbed
		// epilogue.)
		for j := range pre.Nodes {
			d := &pre.Nodes[j]
			if d.Op == OpGraph && d.GOp.EdgeOp == ops.CopyRHS &&
				d.GOp.GatherOp.IsReduction() && d.GOp.BKind == tensor.EdgeK &&
				d.GOp.CKind == tensor.DstV {
				pre.Output = d.Y
				return
			}
		}
	case 2:
		i := firstGraphNode(post)
		if i < 0 {
			return
		}
		post.Nodes = slices.Delete(post.Nodes, i, i+1)
		if i < len(plan.InPlace) {
			plan.InPlace = slices.Delete(plan.InPlace, i, i+1)
		}
	default:
		// Mis-merge the fused operator's reduction: the op-composition check
		// fires fusion-pair whether the node is a bare pair or a region head.
		for i := range post.Nodes {
			n := &post.Nodes[i]
			if !n.Fused {
				continue
			}
			if n.GOp.GatherOp == ops.GatherSum {
				n.GOp.GatherOp = ops.GatherMax
			} else {
				n.GOp.GatherOp = ops.GatherSum
			}
			return
		}
		for i := range post.Nodes {
			n := &post.Nodes[i]
			if n.Op == OpGraph && n.GOp.CKind == tensor.DstV {
				n.Fused = true
				return
			}
		}
	}
}

// corruptRegion corrupts a fusion region's verified metadata. Seed 0
// inflates the claimed saved bytes past any recomputable bound; seed 1
// rewrites the absorbed epilogue chain so it no longer matches the recorded
// unary node; seed 2 appends a phantom consumer of the region's erased
// interior value to the recorded program. Seeds 3 and 4 corrupt a
// row-resident region (corruptRowRegion).
func corruptRegion(pre, post *Program, seed uint64) {
	if seed >= 3 {
		corruptRowRegion(pre, post, seed)
		return
	}
	var n *Node
	for i := range post.Nodes {
		if r := post.Nodes[i].Region; r != nil && len(r.Post) > 0 {
			n = &post.Nodes[i]
			break
		}
	}
	if n == nil {
		return
	}
	switch seed {
	case 1:
		n.Region.Post[0].Kind = 255
	case 2:
		// The recorded node defining the region output is the absorbed
		// epilogue unary; its X operand is the erased interior value. A
		// phantom second consumer of that value makes the absorption illegal.
		for j := range pre.Nodes {
			if d := &pre.Nodes[j]; d.Out == n.Out && d.Op == OpUnary {
				phantomReader(pre, d.X)
				return
			}
		}
	default:
		n.Region.SavedBytes = 1 << 50
	}
}

// corruptRowRegion corrupts the first row-resident region. Seed 3 makes an
// interior reader take a scatter's Dst_V result through a Src_V operand, in
// the recorded program and the compiled one alike, so that only the closure
// rule can object; seed 4 (any other) gives an interior value a recorded
// reader outside the region.
func corruptRowRegion(pre, post *Program, seed uint64) {
	for i := range post.Nodes {
		r := post.Nodes[i].Region
		if r == nil || len(r.Interior) == 0 {
			continue
		}
		if seed != 3 {
			phantomReader(pre, r.Interior[0].Out)
			return
		}
		for j := range r.Interior {
			rd := &r.Interior[j]
			if rd.Op != OpGraph || rd.GOp.BKind != tensor.DstV {
				continue
			}
			for k := range r.Interior {
				if r.Interior[k].Out != rd.Y || r.Interior[k].GOp.CKind != tensor.DstV {
					continue
				}
				rd.GOp.BKind = tensor.SrcV
				for m := range pre.Nodes {
					if pre.Nodes[m].Out == rd.Out {
						pre.Nodes[m].GOp.BKind = tensor.SrcV
					}
				}
				return
			}
		}
		return
	}
}

// corruptWaves corrupts the wave verifier's view. Seed 0 drops the last
// hazard edge from the DAG (step-deps-sound); seed 1 hoists a dependent
// step into its producer's wave (wave-legal).
func corruptWaves(f *analysis.WaveFacts, seed uint64) {
	switch seed {
	case 1:
		if len(f.Edges) == 0 {
			return
		}
		e := f.Edges[0]
		var wFrom int
		for w, wave := range f.Waves {
			for _, s := range wave {
				if s == e.From {
					wFrom = w
				}
			}
		}
		for w, wave := range f.Waves {
			for k, s := range wave {
				if s == e.To && w != wFrom {
					f.Waves[w] = append(wave[:k:k], wave[k+1:]...)
					f.Waves[wFrom] = append(f.Waves[wFrom], e.To)
					return
				}
			}
		}
	default:
		if n := len(f.Edges); n > 0 {
			f.Edges = f.Edges[:n-1]
		}
	}
}

// corruptBuffers corrupts the verified buffer plan. Seed 0 aliases a
// node's output onto a live operand's slot; seed 1 shrinks the output
// value's slot; seed 2 marks a non-elementwise node in-place.
func corruptBuffers(post *Program, plan *BufferPlan, seed uint64) {
	switch seed {
	case 1:
		if out := post.Output; out >= 0 && int(out) < len(plan.Assign) {
			if s := plan.Assign[out]; s >= 0 && s < len(plan.SlotFloats) {
				plan.SlotFloats[s] = 0
			}
		}
	case 2:
		for i := range post.Nodes {
			n := &post.Nodes[i]
			if !elementwise(n.Op) && n.Op != OpConst && n.Op != OpInput &&
				n.X != NoValue && i < len(plan.InPlace) {
				plan.InPlace[i] = true
				return
			}
		}
	default:
		for i := range post.Nodes {
			n := &post.Nodes[i]
			if elementwise(n.Op) || n.X == NoValue {
				continue
			}
			if int(n.X) >= len(plan.Assign) || int(n.Out) >= len(plan.Assign) {
				continue
			}
			sx, so := plan.Assign[n.X], plan.Assign[n.Out]
			if sx >= 0 && so >= 0 && sx != so {
				plan.Assign[n.Out] = sx
				return
			}
		}
	}
}
