package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Plan is the compiled form of (operator, schedule): the analogue of the
// CUDA kernel uGrapher's code generator emits (paper §5.2). Compilation runs
// the two generator passes — innermost-statement fusion and atomic-need
// analysis — whose results are recorded here and honoured by both the
// functional executor and the performance model.
type Plan struct {
	Op       ops.OpInfo
	Schedule Schedule

	// Fused is the result of generator pass 1: when edge_op or gather_op is
	// a copy/NULL, the two innermost statements collapse into one, cutting
	// register pressure and read/write overhead.
	Fused bool
	// NeedsAtomic is the result of generator pass 2: true when different
	// threads may race on the same output element, i.e. the output is a
	// destination-vertex tensor under an edge-parallel strategy.
	NeedsAtomic bool
	// EdgeStageFLOPs/GatherStageFLOPs are the arithmetic per element per stage.
	EdgeStageFLOPs   int
	GatherStageFLOPs int
	// InstsPerElement is the issued-instruction estimate for one
	// (edge, feature-element) step, after fusion.
	InstsPerElement float64
}

// Compile validates the operator descriptor against the schedule and runs
// the code-generation analyses. It is cheap; plans may be compiled per call
// or cached by the caller.
func Compile(op ops.OpInfo, sched Schedule) (*Plan, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	p := &Plan{Op: op, Schedule: sched}

	// Pass 1: fusion. A copy edge_op (or copy gather_op) contributes no
	// arithmetic; the generator merges loads directly into the remaining
	// stage's statement.
	p.Fused = !op.EdgeOp.IsBinary() || !op.GatherOp.IsReduction()
	p.EdgeStageFLOPs = op.EdgeOp.FLOPs()
	p.GatherStageFLOPs = op.GatherOp.FLOPs()

	// Pass 2: atomic analysis. Vertex-parallel strategies give each output
	// row a single owner; edge-parallel strategies race on shared
	// destinations whenever the gather reduces into a vertex tensor.
	p.NeedsAtomic = op.CKind == tensor.DstV && !sched.Strategy.VertexParallel()

	// Mandatory static verification: the analysis layer re-derives the
	// Table-4 typing and the atomic-need bit independently and rejects any
	// disagreement. The fault-injection point corrupts only the verified
	// view (a local copy of the bit), never the plan itself, so tests can
	// prove the write-conflict rule fires without shipping a broken plan.
	needs := p.NeedsAtomic
	if faultinject.Fire(faultinject.CorruptAtomicFlag) {
		needs = !needs
	}
	if err := analysis.VerifyPlan(analysis.PlanFacts{
		Op:             op,
		Schedule:       sched.Strategy.Code(),
		VertexParallel: sched.Strategy.VertexParallel(),
		NeedsAtomic:    needs,
	}); err != nil {
		return nil, err
	}

	// Instruction estimate per innermost element step: operand address math
	// and loads plus the stage arithmetic; fusion saves the intermediate
	// register traffic.
	insts := 2.0 // loop bookkeeping + output address
	if op.AKind != tensor.Null {
		insts += 2 // address + load
	}
	if op.BKind != tensor.Null {
		insts += 2
	}
	insts += float64(p.EdgeStageFLOPs + p.GatherStageFLOPs)
	if !p.Fused {
		insts += 2 // materialise edge_tmp and re-consume it
	}
	if p.NeedsAtomic {
		insts += 2 // atomic RMW sequence overhead
	} else if op.CKind == tensor.DstV && sched.Strategy.VertexParallel() {
		insts += 0.1 // register accumulation; store amortised per chunk
	} else {
		insts += 1 // plain store
	}
	p.InstsPerElement = insts
	return p, nil
}

// MustCompile is Compile for statically-known-good inputs; it panics on
// error. Only for op/schedule literals in tests and examples — code paths
// fed by user input use Compile and handle the error.
func MustCompile(op ops.OpInfo, sched Schedule) *Plan {
	p, err := Compile(op, sched)
	if err != nil {
		// invariant: callers pass literal descriptors known valid at review
		// time; a failure here is a bug in the literal, not a data condition.
		panic(err)
	}
	return p
}

// Operands carries the three typed embedding tensors of the unified
// abstraction (paper Fig. 5). C is the output; its tensor is written by Run.
type Operands struct {
	A, B, C tensor.Typed
	// Interior, when set, makes the operator the head of a row-resident
	// region (region_rows.go): one of A and B is then an Edge operand without
	// a tensor, computed chunk by chunk by the stages listed here. Backends
	// without that lowering refuse such operands with ErrNoRowRegion.
	Interior *Interior
}

// featureWidth returns the operator's feature dimension F (the output width)
// and checks operand widths are either F or 1 (a width-1 operand broadcasts,
// e.g. scalar edge weights in GCN's u_mul_e).
func (o Operands) featureWidth() (int, error) {
	if o.C.T == nil {
		return 0, fmt.Errorf("core: output tensor C is required")
	}
	f := o.C.T.Cols
	for _, operand := range []tensor.Typed{o.A, o.B} {
		if operand.Kind == tensor.Null || operand.T == nil {
			continue
		}
		if operand.T.Cols != f && operand.T.Cols != 1 {
			return 0, fmt.Errorf("core: operand width %d incompatible with output width %d",
				operand.T.Cols, f)
		}
	}
	return f, nil
}

// validateOperands checks kinds and shapes against the op and graph sizes.
func (p *Plan) validateOperands(numVertices, numEdges int, o Operands) error {
	if o.Interior != nil {
		return ErrNoRowRegion
	}
	if o.A.Kind != p.Op.AKind {
		return fmt.Errorf("core: operand A kind %s != op's %s", o.A.Kind, p.Op.AKind)
	}
	if o.B.Kind != p.Op.BKind {
		return fmt.Errorf("core: operand B kind %s != op's %s", o.B.Kind, p.Op.BKind)
	}
	if o.C.Kind != p.Op.CKind {
		return fmt.Errorf("core: operand C kind %s != op's %s", o.C.Kind, p.Op.CKind)
	}
	f, err := o.featureWidth()
	if err != nil {
		return err
	}
	if err := o.A.Validate(numVertices, numEdges, 0); err != nil {
		return err
	}
	if err := o.B.Validate(numVertices, numEdges, 0); err != nil {
		return err
	}
	if err := o.C.Validate(numVertices, numEdges, f); err != nil {
		return err
	}
	return nil
}
