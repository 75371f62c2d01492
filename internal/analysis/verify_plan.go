package analysis

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// Plan-level rules: kernel-granularity checks that run inside core.Compile
// for every (operator, schedule) pair — including each candidate the tuner
// grid-searches — and again per lowered kernel to cross-check how the
// backend actually resolved the write conflict.

// PlanFacts is the verifier's view of one compiled kernel plan, carried in
// primitives so analysis needs no core types.
type PlanFacts struct {
	// Op is the operator descriptor.
	Op ops.OpInfo
	// Schedule is the display form of the chosen schedule (diagnostics only).
	Schedule string
	// VertexParallel reports whether the strategy assigns each destination
	// vertex a single owner (thread_vertex / warp_vertex).
	VertexParallel bool
	// NeedsAtomic is the atomic-need bit the plan compiler derived.
	NeedsAtomic bool
}

// Conflict-handling disciplines a lowered kernel can declare (the
// core.ConflictReporter vocabulary).
const (
	// ConflictSequential: a single writer executes every edge in order.
	ConflictSequential = "sequential"
	// ConflictPerEdgeRows: each edge writes only its own output row.
	ConflictPerEdgeRows = "per-edge-rows"
	// ConflictOwnerPerRow: each output row has exactly one owning worker,
	// which reduces the row's whole in-edge list.
	ConflictOwnerPerRow = "owner-per-row"
	// ConflictAtomic: racing writers serialise via atomic read-modify-write.
	ConflictAtomic = "atomic"
)

// needsConflictHandling re-derives the paper's atomic-need analysis: racing
// writers exist exactly when a reduction targets a destination-vertex
// tensor under a strategy whose work items are edges, so two workers can
// hold edges sharing a destination.
func needsConflictHandling(op ops.OpInfo, vertexParallel bool) bool {
	return op.CKind == tensor.DstV && !vertexParallel
}

// VerifyPlan checks one compiled kernel plan: operand typing per Table 4
// and the write-conflict bit against the re-derived analysis. Returns a
// *VerifyError or nil.
func VerifyPlan(f PlanFacts) error {
	plansVerified.Add(1)
	diags := checkOpTable(f.Op)
	if want := needsConflictHandling(f.Op, f.VertexParallel); f.NeedsAtomic != want {
		par := "edge-parallel"
		if f.VertexParallel {
			par = "vertex-parallel"
		}
		diags = append(diags, Diagnostic{
			Rule: RuleWriteConflict, Node: f.Op.Name,
			Msg: fmt.Sprintf("plan says needs_atomic=%v but %s with %s output under %s requires %v",
				f.NeedsAtomic, f.Op.GatherOp, f.Op.CKind, par, want),
			Hint: "atomic need = reducing into Dst_V under an edge-parallel strategy",
		})
	}
	return Finish(diags)
}

// VerifyLowering cross-checks the conflict-handling discipline a lowered
// kernel declared against what the (operator, strategy) pair requires.
// handling is one of the Conflict* constants; unknown values are rejected.
func VerifyLowering(f PlanFacts, handling string) error {
	plansVerified.Add(1)
	safe := false
	switch handling {
	case ConflictSequential:
		safe = true // one writer can never race
	case ConflictPerEdgeRows:
		safe = f.Op.CKind == tensor.EdgeK
	case ConflictOwnerPerRow, ConflictAtomic:
		// One owner per row cannot race whichever strategy the plan names:
		// the host lowering walks destination rows for edge-parallel plans
		// too, so the discipline is judged on what runs, not on the GPU
		// strategy it was derived from.
		safe = f.Op.CKind == tensor.DstV
	}
	if safe {
		return Finish(nil)
	}
	return Finish([]Diagnostic{{
		Rule: RuleWriteConflict, Node: f.Op.Name,
		Msg: fmt.Sprintf("backend lowered %q write handling for %s output under schedule %s",
			handling, f.Op.CKind, f.Schedule),
		Hint: "the lowered discipline must make concurrent writes to one element impossible",
	}})
}

// checkOpTable re-derives the Table-4 legality of a standalone operator
// descriptor (the plan-level twin of checkGraphOp, which additionally sees
// operand bindings).
func checkOpTable(op ops.OpInfo) []Diagnostic {
	var diags []Diagnostic
	bad := func(msg, hint string) {
		diags = append(diags, Diagnostic{Rule: RuleOperandType, Node: op.Name, Msg: msg, Hint: hint})
	}
	if !op.EdgeOp.Valid() {
		bad(fmt.Sprintf("unknown edge op %d", op.EdgeOp), "use a Table-4 edge op")
	}
	if !op.GatherOp.Valid() {
		bad(fmt.Sprintf("unknown gather op %d", op.GatherOp), "use a Table-4 gather op")
	}
	if len(diags) > 0 {
		return diags
	}
	switch op.CKind {
	case tensor.EdgeK:
		if op.GatherOp.IsReduction() {
			bad(fmt.Sprintf("edge-tensor output with reducing gather %s", op.GatherOp),
				"message creation must not reduce")
		}
	case tensor.DstV:
		if !op.GatherOp.IsReduction() {
			bad(fmt.Sprintf("vertex-tensor output with non-reducing gather %s", op.GatherOp),
				"aggregation needs sum/max/min/mean")
		}
	default:
		bad(fmt.Sprintf("output kind %s is not addressable", op.CKind), "outputs must be Edge or Dst_V")
	}
	wantA := op.EdgeOp.IsBinary() || op.EdgeOp == ops.CopyLHS
	wantB := op.EdgeOp.IsBinary() || op.EdgeOp == ops.CopyRHS || op.EdgeOp == ops.EdgeNull
	if wantA != (op.AKind != tensor.Null) {
		bad(fmt.Sprintf("edge op %s with operand A kind %s", op.EdgeOp, op.AKind),
			"operand presence must match the edge op's arity")
	}
	if wantB != (op.BKind != tensor.Null) {
		bad(fmt.Sprintf("edge op %s with operand B kind %s", op.EdgeOp, op.BKind),
			"operand presence must match the edge op's arity")
	}
	return diags
}
