package analysis

import (
	"slices"

	"repro/internal/ops"
)

// The verifier's view of a program: a minimal mirror of the internal/program
// IR carried in primitive types, so analysis can sit below program in the
// import graph. internal/program adapts its *Program into this form (see
// program/verify.go); corrupting passes mutate only this view, never the
// real compile artifacts.

// Rows mirrors program.RowsClass.
type Rows uint8

const (
	// VertexRows marks a per-vertex value (|V| rows).
	VertexRows Rows = iota
	// EdgeRows marks a per-edge value (|E| rows).
	EdgeRows
)

// String names the class.
func (r Rows) String() string {
	if r == EdgeRows {
		return "edge"
	}
	return "vertex"
}

// NodeKind mirrors program.NodeOp. The verifier only needs to distinguish
// the classes its rules treat differently; every other node kind maps to
// KindOther.
type NodeKind uint8

const (
	// KindOther is any dense/structural node no rule singles out (head-merge).
	KindOther NodeKind = iota
	// KindInput is the program input node.
	KindInput
	// KindConst is a recorded constant (owns its storage; outside the plan).
	KindConst
	// KindUnary is an elementwise unary chain (legal in-place target).
	KindUnary
	// KindAddScaled is elementwise x + s*y (legal in-place target).
	KindAddScaled
	// KindGraph is a uGrapher graph operator.
	KindGraph
	// KindGEMM is out = X @ W with W a constant.
	KindGEMM
	// KindConcat is the column-wise concatenation [X | Y].
	KindConcat
)

var nodeKindNames = [...]string{"other", "input", "const", "unary", "add_scaled", "graph", "gemm", "concat"}

// String names the kind.
func (k NodeKind) String() string {
	if int(k) < len(nodeKindNames) {
		return nodeKindNames[k]
	}
	return "?"
}

// Elementwise reports whether the node kind computes element i of its output
// from element i of its operands only — the precondition for in-place
// aliasing.
func (k NodeKind) Elementwise() bool { return k == KindUnary || k == KindAddScaled }

// NoValue marks an absent operand reference.
const NoValue = -1

// IRValue is one SSA value's shape.
type IRValue struct {
	Rows  Rows
	Cols  int
	Const bool
}

// Elem is one elementwise unary op of a chain, mirrored from
// program.Unary in primitive form so the verifier can compare chains
// without importing program.
type Elem struct {
	Kind  uint8
	Alpha float32
}

// IRNode is one operation of the DAG. X and Y are operand value ids
// (NoValue when absent); Out is the defined value.
type IRNode struct {
	Name string
	Kind NodeKind
	X, Y int
	Out  int
	// Op is the operator descriptor of KindGraph nodes.
	Op ops.OpInfo
	// Fused marks graph nodes the fusion pass created by merging a
	// materialise+scatter pair of the pre-fusion program.
	Fused bool
	// Chain is the elementwise op sequence of KindUnary nodes.
	Chain []Elem
	// HasRegion marks graph nodes the region-fusion pass extended beyond
	// the bare pair rewrite: PreX/PreY are elementwise chains absorbed into
	// the operand reads, Post is the epilogue chain applied to the output,
	// and RegionSavedBytes is the intermediate traffic the cost model
	// claims the region saves. The fusion-region rules re-derive all four
	// from the pre-fusion program.
	HasRegion        bool
	PreX, PreY, Post []Elem
	RegionSavedBytes int64
	// Interior, on the head of a row-resident region, lists the compiled nodes
	// that run inside the head's row chunks, producer first. Their values have
	// no storage; the fusion-region rule re-derives from operand kinds alone
	// that none needs any.
	Interior []IRNode
	// Scale is the Y coefficient of KindAddScaled nodes.
	Scale float32
	// Dense carries what the dense-rewrite stage recorded on the node
	// (verify_dense.go); nil for nodes it left alone.
	Dense *IRDense
}

// IRDense mirrors program.DenseInfo. Absent value references are NoValue, so
// build one with NewIRDense.
type IRDense struct {
	// Post is the elementwise chain a GEMM or add-scaled node absorbed.
	Post []Elem
	// X2 and W2 are a split-weight GEMM's second (operand, weight) pair.
	X2, W2 int
	// ViewOf is the recorded constant whose rows [ViewLo, ViewHi) a const
	// node created by the stage views.
	ViewOf, ViewLo, ViewHi int
	// CommutedFrom is the recorded aggregate value a graph node moved behind
	// its projection stands in for.
	CommutedFrom int
}

// NewIRDense returns an annotation with every value reference absent.
func NewIRDense() *IRDense {
	return &IRDense{X2: NoValue, W2: NoValue, ViewOf: NoValue, CommutedFrom: NoValue}
}

// binds lists the values bound to n's own operand slots, NoValue for absent
// ones: X, Y and a split-weight GEMM's second pair.
func (n *IRNode) binds() [4]int {
	vs := [4]int{n.X, n.Y, NoValue, NoValue}
	if d := n.Dense; d != nil {
		vs[2], vs[3] = d.X2, d.W2
	}
	return vs
}

// interior reports whether v is defined by one of n's interior nodes.
func (n *IRNode) interior(v int) bool {
	for i := range n.Interior {
		if n.Interior[i].Out == v {
			return v != NoValue
		}
	}
	return false
}

// operands lists the values n reads from storage: what it binds, plus, for
// the head of a row-resident region, what its interior nodes bind, less the
// interior values themselves.
func (n *IRNode) operands() []int {
	own := n.binds()
	vs := own[:]
	if len(n.Interior) == 0 {
		return vs
	}
	for i := range n.Interior {
		theirs := n.Interior[i].binds()
		vs = append(vs, theirs[:]...)
	}
	return slices.DeleteFunc(vs, n.interior)
}

// ProgramIR is the verifier's view of one program: nodes in topological
// order over an SSA value table.
type ProgramIR struct {
	Values        []IRValue
	Nodes         []IRNode
	Input, Output int
}

// BufferFacts is the verifier's view of a buffer plan for one graph size.
type BufferFacts struct {
	// Assign maps each value id to its arena slot (NoSlot for constants and
	// values outside the plan).
	Assign []int
	// InPlace marks nodes that write into their X operand's slot.
	InPlace []bool
	// SlotFloats is each slot's capacity in float32 elements.
	SlotFloats []int
	// NumVertices and NumEdges size the planning graph.
	NumVertices, NumEdges int
}

// NoSlot marks values without an arena slot.
const NoSlot = -1

// ProgramCheck bundles everything VerifyProgram inspects: the pre-fusion
// program, the compiled (post-fusion, post-DCE) program, and the buffer
// plan. Pre may be nil (fusion/DCE rules are skipped); Plan may be nil
// (buffer rules are skipped).
type ProgramCheck struct {
	Subject string
	Pre     *ProgramIR
	Post    *ProgramIR
	Plan    *BufferFacts
	// NumVertices and NumEdges size the compilation graph; the
	// fusion-region cost rule needs them to bound claimed byte savings.
	// When both are zero the cost bound is skipped (sign checks still run).
	NumVertices, NumEdges int
}

// VerifyProgram runs every program-level rule over c and returns a
// *VerifyError listing all violations, or nil when the program verifies.
func VerifyProgram(c ProgramCheck) error {
	programsVerified.Add(1)
	var diags []Diagnostic
	if c.Post == nil {
		diags = append(diags, Diagnostic{
			Rule: RuleSSAForm, Msg: "no compiled program to verify",
			Hint: "pass the post-fusion program as Post",
		})
		return finish(diags)
	}
	diags = append(diags, checkSSA(c.Post)...)
	diags = append(diags, checkOperandTypes(c.Post)...)
	if c.Pre != nil {
		diags = append(diags, checkFusion(c.Pre, c.Post, c.NumVertices, c.NumEdges)...)
	}
	if c.Plan != nil {
		diags = append(diags, checkBuffers(c.Post, c.Plan)...)
	}
	return finish(diags)
}

// finish counts violations and wraps them; nil when clean.
func finish(diags []Diagnostic) error {
	if len(diags) == 0 {
		return nil
	}
	violationsFound.Add(int64(len(diags)))
	return &VerifyError{Diags: diags}
}
