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

// The bridge to the static verifier: Compile hands the analysis layer its
// own view of the pre-fusion program, the compiled program and the buffer
// plan, and aborts on any violation. The faultinject corruption points
// mutate ONLY that view (freshly copied slices), never the real compile
// artifacts — so the fault-injection suite can prove every rule fires while
// a corrupted compilation still fails safely.

// irKinds maps a NodeOp to the verifier's coarser node classification; a
// kind outside the table (hand-built IR) is KindOther.
var irKinds = [...]analysis.NodeKind{
	OpInput: analysis.KindInput, OpConst: analysis.KindConst, OpGEMM: analysis.KindGEMM,
	OpUnary: analysis.KindUnary, OpAddScaled: analysis.KindAddScaled, OpHeadMerge: analysis.KindOther,
	OpConcat: analysis.KindConcat, OpGraph: analysis.KindGraph,
}

func kindOf(op NodeOp) analysis.NodeKind {
	if int(op) < len(irKinds) {
		return irKinds[op]
	}
	return analysis.KindOther
}

// irOf converts a Program into the verifier's exchange form. The slices are
// fresh, so corruption passes may mutate them freely.
func irOf(p *Program) *analysis.ProgramIR {
	ir := &analysis.ProgramIR{
		Values: make([]analysis.IRValue, len(p.Values)),
		Nodes:  make([]analysis.IRNode, len(p.Nodes)),
		Input:  int(p.Input),
		Output: int(p.Output),
	}
	for i, v := range p.Values {
		rows := analysis.VertexRows
		if v.Rows == EdgeRows {
			rows = analysis.EdgeRows
		}
		ir.Values[i] = analysis.IRValue{Rows: rows, Cols: v.Cols, Const: v.Const}
	}
	for i := range p.Nodes {
		ir.Nodes[i] = irNodeOf(&p.Nodes[i])
	}
	return ir
}

// irNodeOf converts one node, a row-resident region's interior nodes included.
func irNodeOf(n *Node) analysis.IRNode {
	in := analysis.IRNode{
		Name: n.Name, Kind: kindOf(n.Op),
		X: int(n.X), Y: int(n.Y), Out: int(n.Out),
		Op: n.GOp, Fused: n.Fused,
		Chain: elemsOf(n.Chain), Scale: n.Scale, Dense: n.Dense.ir(),
	}
	if r := n.Region; r != nil {
		in.HasRegion = true
		in.PreX = elemsOf(r.PreX)
		in.PreY = elemsOf(r.PreY)
		in.Post = elemsOf(r.Post)
		in.RegionSavedBytes = r.SavedBytes
		for i := range r.Interior {
			in.Interior = append(in.Interior, irNodeOf(&r.Interior[i]))
		}
	}
	return in
}

// elemsOf converts a unary chain into the verifier's primitive mirror. The
// slice is fresh, so corruption passes may mutate it freely.
func elemsOf(chain []Unary) []analysis.Elem {
	if len(chain) == 0 {
		return nil
	}
	es := make([]analysis.Elem, len(chain))
	for i, u := range chain {
		es[i] = analysis.Elem{Kind: uint8(u.Kind), Alpha: u.Alpha}
	}
	return es
}

// factsOf converts a buffer plan into the verifier's exchange form, copying
// the plan slices so corruption never reaches the real plan.
func factsOf(plan *BufferPlan, numV, numE int) *analysis.BufferFacts {
	return &analysis.BufferFacts{
		Assign:      append([]int(nil), plan.Assign...),
		InPlace:     append([]bool(nil), plan.InPlace...),
		SlotFloats:  append([]int(nil), plan.SlotFloats...),
		NumVertices: numV,
		NumEdges:    numE,
	}
}

// verifyCompilation runs the mandatory program-level verification for one
// compilation: pre is the recorded program, post the fused+pruned one.
func verifyCompilation(pre, post *Program, plan *BufferPlan, numV, numE int) error {
	c := analysis.ProgramCheck{
		Subject:     post.Model,
		Pre:         irOf(pre),
		Post:        irOf(post),
		Plan:        factsOf(plan, numV, numE),
		NumVertices: numV,
		NumEdges:    numE,
	}
	corruptCheck(&c)
	return analysis.VerifyProgram(c)
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

// corruptCheck applies any armed plan-corruption faults to the verifier's
// view. Each point's Spec.Seed selects the corrupted rule variant (see the
// faultinject.Corrupt* docs).
func corruptCheck(c *analysis.ProgramCheck) {
	if faultinject.Fire(faultinject.CorruptOperandKind) {
		corruptOperand(c, faultinject.SpecOf(faultinject.CorruptOperandKind).Seed)
	}
	if faultinject.Fire(faultinject.CorruptFusion) {
		corruptFusion(c, faultinject.SpecOf(faultinject.CorruptFusion).Seed)
	}
	if faultinject.Fire(faultinject.CorruptFusionRegion) {
		corruptRegion(c, faultinject.SpecOf(faultinject.CorruptFusionRegion).Seed)
	}
	if faultinject.Fire(faultinject.CorruptBufferPlan) {
		corruptBuffers(c, faultinject.SpecOf(faultinject.CorruptBufferPlan).Seed)
	}
	if faultinject.Fire(faultinject.CorruptDenseRewrite) {
		corruptDense(c, faultinject.SpecOf(faultinject.CorruptDenseRewrite).Seed)
	}
}

// phantomReader appends to the recorded view a dead unary node reading v: a
// second consumer no rewrite that erased v could have honoured.
func phantomReader(c *analysis.ProgramCheck, v int) {
	c.Pre.Values = append(c.Pre.Values, c.Pre.Values[v])
	c.Pre.Nodes = append(c.Pre.Nodes, analysis.IRNode{
		Name: "phantom", Kind: analysis.KindUnary,
		X: v, Y: analysis.NoValue, Out: len(c.Pre.Values) - 1,
		Chain: []analysis.Elem{{}},
	})
}

// firstGraphNode returns the index of the first graph node in ir, or -1.
func firstGraphNode(ir *analysis.ProgramIR) int {
	for i := range ir.Nodes {
		if ir.Nodes[i].Kind == analysis.KindGraph {
			return i
		}
	}
	return -1
}

// corruptOperand corrupts the compiled view's typing. Seed 0 flips a graph
// operand's addressing class; seed 1 points a node outside the value table.
func corruptOperand(c *analysis.ProgramCheck, seed uint64) {
	i := firstGraphNode(c.Post)
	if i < 0 {
		return
	}
	n := &c.Post.Nodes[i]
	if seed == 1 {
		n.Out = len(c.Post.Values) + 7
		return
	}
	flip := func(k tensor.Kind) tensor.Kind {
		if k == tensor.EdgeK {
			return tensor.SrcV
		}
		return tensor.EdgeK
	}
	if n.Op.AKind != tensor.Null {
		n.Op.AKind = flip(n.Op.AKind)
	} else {
		n.Op.BKind = flip(n.Op.BKind)
	}
}

// corruptFusion corrupts the fusion bookkeeping. Seed 0 mis-merges a fused
// operator (or toggles a Fused marker when no pair fused); seed 1 declares a
// fused intermediate to be the program output; seed 2 drops a live node from
// the compiled view.
func corruptFusion(c *analysis.ProgramCheck, seed uint64) {
	switch seed {
	case 1:
		if c.Pre == nil {
			return
		}
		// Find the recorded scatter: its Y operand is the intermediate the
		// fusion pass erased. (Looked up in the pre view directly, since a
		// fused node's output may have moved past an absorbed epilogue.)
		for j := range c.Pre.Nodes {
			d := &c.Pre.Nodes[j]
			if d.Kind == analysis.KindGraph && d.Op.EdgeOp == ops.CopyRHS &&
				d.Op.GatherOp.IsReduction() && d.Op.BKind == tensor.EdgeK &&
				d.Op.CKind == tensor.DstV {
				c.Pre.Output = d.Y
				return
			}
		}
	case 2:
		i := firstGraphNode(c.Post)
		if i < 0 {
			return
		}
		c.Post.Nodes = append(c.Post.Nodes[:i:i], c.Post.Nodes[i+1:]...)
		if c.Plan != nil && i < len(c.Plan.InPlace) {
			c.Plan.InPlace = append(c.Plan.InPlace[:i:i], c.Plan.InPlace[i+1:]...)
		}
	default:
		// Mis-merge the fused operator's reduction: the op-composition check
		// fires fusion-pair whether the node is a bare pair or a region head.
		for i := range c.Post.Nodes {
			n := &c.Post.Nodes[i]
			if !n.Fused {
				continue
			}
			if n.Op.GatherOp == ops.GatherSum {
				n.Op.GatherOp = ops.GatherMax
			} else {
				n.Op.GatherOp = ops.GatherSum
			}
			return
		}
		for i := range c.Post.Nodes {
			n := &c.Post.Nodes[i]
			if n.Kind == analysis.KindGraph && n.Op.CKind == tensor.DstV {
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
// interior value to the pre-fusion view. Seeds 3 and 4 corrupt a row-resident
// region (corruptRowRegion).
func corruptRegion(c *analysis.ProgramCheck, seed uint64) {
	if seed >= 3 {
		corruptRowRegion(c, seed)
		return
	}
	ri := -1
	for i := range c.Post.Nodes {
		n := &c.Post.Nodes[i]
		if n.HasRegion && len(n.Post) > 0 {
			ri = i
			break
		}
	}
	if ri < 0 {
		return
	}
	n := &c.Post.Nodes[ri]
	switch seed {
	case 1:
		n.Post[0].Kind = 255
	case 2:
		if c.Pre == nil {
			return
		}
		// The pre node defining the region output is the absorbed epilogue
		// unary; its X operand is the erased interior value. A phantom
		// second consumer of that value makes the absorption illegal.
		for j := range c.Pre.Nodes {
			d := &c.Pre.Nodes[j]
			if d.Out != n.Out || d.Kind != analysis.KindUnary {
				continue
			}
			phantomReader(c, d.X)
			return
		}
	default:
		n.RegionSavedBytes = 1 << 50
	}
}

// corruptRowRegion corrupts the first row-resident region of the view. Seed 3
// makes an interior reader take a scatter's Dst_V result through a Src_V
// operand, in the recorded program and the compiled one alike, so that only
// the closure rule can object; seed 4 (any other) gives an interior value a
// recorded reader outside the region.
func corruptRowRegion(c *analysis.ProgramCheck, seed uint64) {
	if c.Pre == nil {
		return
	}
	for i := range c.Post.Nodes {
		n := &c.Post.Nodes[i]
		if len(n.Interior) == 0 {
			continue
		}
		if seed != 3 {
			phantomReader(c, n.Interior[0].Out)
			return
		}
		for j := range n.Interior {
			r := &n.Interior[j]
			if r.Kind != analysis.KindGraph || r.Op.BKind != tensor.DstV {
				continue
			}
			for k := range n.Interior {
				if n.Interior[k].Out != r.Y || n.Interior[k].Op.CKind != tensor.DstV {
					continue
				}
				r.Op.BKind = tensor.SrcV
				for m := range c.Pre.Nodes {
					if c.Pre.Nodes[m].Out == r.Out {
						c.Pre.Nodes[m].Op.BKind = tensor.SrcV
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
func corruptBuffers(c *analysis.ProgramCheck, seed uint64) {
	if c.Plan == nil {
		return
	}
	switch seed {
	case 1:
		out := c.Post.Output
		if out >= 0 && out < len(c.Plan.Assign) {
			if s := c.Plan.Assign[out]; s >= 0 && s < len(c.Plan.SlotFloats) {
				c.Plan.SlotFloats[s] = 0
			}
		}
	case 2:
		for i := range c.Post.Nodes {
			n := &c.Post.Nodes[i]
			if !n.Kind.Elementwise() && n.Kind != analysis.KindConst && n.Kind != analysis.KindInput &&
				n.X != analysis.NoValue && i < len(c.Plan.InPlace) {
				c.Plan.InPlace[i] = true
				return
			}
		}
	default:
		for i := range c.Post.Nodes {
			n := &c.Post.Nodes[i]
			if n.Kind.Elementwise() || n.X == analysis.NoValue {
				continue
			}
			if n.X >= len(c.Plan.Assign) || n.Out >= len(c.Plan.Assign) {
				continue
			}
			sx, so := c.Plan.Assign[n.X], c.Plan.Assign[n.Out]
			if sx >= 0 && so >= 0 && sx != so {
				c.Plan.Assign[n.Out] = sx
				return
			}
		}
	}
}
