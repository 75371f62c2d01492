// Package program implements whole-model compilation: GNN models are
// *recorded* as a typed operator DAG (dense GEMMs, elementwise stages and
// uGrapher graph operators over vertex/edge tensors) instead of being
// interpreted op by op. A recorded Program is then compiled once for a
// (graph, engine, backend) triple — fusion, schedule assignment and buffer
// planning run at compile time — and the resulting CompiledProgram can be
// executed many times with zero steady-state allocations.
//
// This is the model-level counterpart of the paper's operator-level split
// between computation and schedule (§3-§5): the per-operator abstraction
// decides *how each kernel runs*; the program layer decides *when schedules
// are chosen* (once, before serving) and *where intermediates live* (a
// planned arena instead of per-call tensors). The op-by-op interpreter in
// internal/models stays available as the semantic oracle the compiled path
// is tested against.
package program

import (
	"fmt"

	"repro/internal/ops"
	"repro/internal/tensor"
)

// ValueID names one SSA value of the DAG: every value is defined by exactly
// one node and consumed by zero or more later nodes.
type ValueID int32

// NoValue marks an absent operand.
const NoValue ValueID = -1

// RowsClass says which graph dimension sizes a value's row count: vertex
// tensors have |V| rows, edge tensors |E|. (The SrcV/DstV distinction is an
// addressing role of graph-operator operands, not a storage property, so it
// lives in the per-node ops.OpInfo, not here.)
type RowsClass uint8

const (
	// VertexRows marks a per-vertex tensor (|V| rows).
	VertexRows RowsClass = iota
	// EdgeRows marks a per-edge tensor (|E| rows).
	EdgeRows
)

// String names the class.
func (r RowsClass) String() string {
	if r == EdgeRows {
		return "edge"
	}
	return "vertex"
}

// Value describes one SSA value's storage shape.
type Value struct {
	Rows RowsClass
	Cols int
	// Const marks record-time constants (weights, edge scalars): they carry
	// their own persistent tensor and are exempt from buffer planning.
	Const bool
}

// bytes is the value's storage on a graph of the given size.
func (v Value) bytes(numV, numE int) int64 {
	rows := numV
	if v.Rows == EdgeRows {
		rows = numE
	}
	return 4 * int64(rows) * int64(v.Cols)
}

// NodeOp enumerates the node kinds of the program IR.
type NodeOp uint8

const (
	// OpInput is the caller-provided feature matrix (one per program).
	OpInput NodeOp = iota
	// OpConst is a record-time constant (weight matrix, edge scalars).
	OpConst
	// OpGEMM is out = X @ W with W a constant (Y).
	OpGEMM
	// OpUnary applies a chain of elementwise unary ops to X.
	OpUnary
	// OpAddScaled is out = X + Scale*Y, elementwise.
	OpAddScaled
	// OpHeadMerge reduces X's columns to one per-row mean (GAT head merge).
	OpHeadMerge
	// OpConcat is the column-wise concatenation [X | Y].
	OpConcat
	// OpGraph is a uGrapher graph operator described by GOp.
	OpGraph
)

var nodeOpNames = [...]string{"input", "const", "gemm", "unary", "add_scaled", "head_merge", "concat", "graph"}

// String names the node kind.
func (op NodeOp) String() string {
	if int(op) < len(nodeOpNames) {
		return nodeOpNames[op]
	}
	return fmt.Sprintf("NodeOp(%d)", uint8(op))
}

// UnaryKind enumerates the elementwise unary ops models use between graph
// and dense stages.
type UnaryKind uint8

const (
	// UnaryReLU is max(0, x).
	UnaryReLU UnaryKind = iota
	// UnaryLeakyReLU is x>=0 ? x : Alpha*x.
	UnaryLeakyReLU
	// UnaryExp is e^x.
	UnaryExp
)

// Unary is one elementwise unary op; OpUnary nodes hold a chain of them
// (e.g. GAT's leaky-relu-then-exp) applied in order, in place.
type Unary struct {
	Kind  UnaryKind
	Alpha float32
}

// Apply runs the op over d in place.
func (u Unary) Apply(d *tensor.Dense) {
	switch u.Kind {
	case UnaryReLU:
		tensor.ReLU(d)
	case UnaryLeakyReLU:
		tensor.LeakyReLU(d, u.Alpha)
	case UnaryExp:
		tensor.Exp(d)
	default:
		// Invariant, not input-reachable: UnaryKind values are produced only
		// by the model recorders in internal/models, never parsed from user
		// input, so an unknown kind is a recorder bug.
		panic(fmt.Sprintf("program: invalid unary kind %d", u.Kind))
	}
}

// Node is one operation of the DAG. X and Y are the operand values (NoValue
// when absent); Out is the defined value.
type Node struct {
	Op   NodeOp
	Name string
	X, Y ValueID
	Out  ValueID

	// Chain is the unary op sequence of OpUnary nodes.
	Chain []Unary
	// Scale is the Y coefficient of OpAddScaled nodes.
	Scale float32
	// GOp is the operator descriptor of OpGraph nodes: X binds to operand A,
	// Y to operand B (each NoValue iff the corresponding kind is Null).
	GOp ops.OpInfo
	// Const is the payload of OpConst nodes.
	Const *tensor.Dense
	// Fused marks graph nodes the fusion pass created by merging a
	// materialise+scatter pair; the static verifier uses it to match each
	// fused operator back to the recorded pair it replaced.
	Fused bool
	// Region annotates graph nodes that head a fusion region (regions.go):
	// the absorbed prologue/epilogue chains and the cost model's claimed
	// saving. Nil for nodes outside any region.
	Region *RegionInfo
	// Dense annotates nodes the dense-rewrite stage changed or created
	// (rewrite.go). Nil everywhere else.
	Dense *DenseInfo
}

// Program is a recorded model forward pass: nodes in topological (recording)
// order over an SSA value table. Programs are graph-shape-typed (vertex vs
// edge rows) but graph-instance-independent except for recorded constants
// sized to the recording graph.
type Program struct {
	// Model labels the recorded model ("GCN", ...).
	Model string
	// InCols and Classes are the input feature width and output width.
	InCols, Classes int
	Values          []Value
	Nodes           []Node
	// Input and Output are the program's boundary values.
	Input, Output ValueID
}

// value returns the value descriptor.
func (p *Program) value(v ValueID) Value { return p.Values[v] }

// RowsOf resolves a value's row count on a concrete graph.
func (p *Program) RowsOf(v ValueID, numVertices, numEdges int) int {
	if p.Values[v].Rows == EdgeRows {
		return numEdges
	}
	return numVertices
}

// GraphOpCount counts graph-operator nodes (the kernels a forward pass
// launches).
func (p *Program) GraphOpCount() int {
	n := 0
	for i := range p.Nodes {
		if p.Nodes[i].Op == OpGraph {
			n++
		}
	}
	return n
}

// Builder records a Program. All append methods validate their operands and
// latch the first error; Finish reports it.
type Builder struct {
	p   Program
	err error
}

// NewBuilder starts recording a program for the named model.
func NewBuilder(model string, inCols, classes int) *Builder {
	return &Builder{p: Program{Model: model, InCols: inCols, Classes: classes, Input: NoValue, Output: NoValue}}
}

func (b *Builder) errf(format string, args ...interface{}) ValueID {
	if b.err == nil {
		b.err = fmt.Errorf("program: "+format, args...)
	}
	return NoValue
}

// newValue appends a value descriptor.
func (b *Builder) newValue(rows RowsClass, cols int, isConst bool) ValueID {
	b.p.Values = append(b.p.Values, Value{Rows: rows, Cols: cols, Const: isConst})
	return ValueID(len(b.p.Values) - 1)
}

// check validates an operand reference.
func (b *Builder) check(v ValueID, what string) bool {
	if v < 0 || int(v) >= len(b.p.Values) {
		b.errf("%s references undefined value %d", what, v)
		return false
	}
	return true
}

func (b *Builder) push(n Node) ValueID {
	b.p.Nodes = append(b.p.Nodes, n)
	return n.Out
}

// Input declares the caller-provided vertex feature matrix. A program has
// exactly one input.
func (b *Builder) Input(cols int) ValueID {
	if b.err != nil {
		return NoValue
	}
	if b.p.Input != NoValue {
		return b.errf("program already has an input")
	}
	if cols <= 0 {
		return b.errf("input width must be positive, got %d", cols)
	}
	out := b.newValue(VertexRows, cols, false)
	b.p.Input = out
	return b.push(Node{Op: OpInput, Name: "input", X: NoValue, Y: NoValue, Out: out})
}

// Const records a persistent constant tensor (a weight matrix or
// materialised edge scalars). rows classifies graph-shaped constants; for
// weight matrices (graph-independent shapes) the class is ignored by the
// planner, which never pools constants.
func (b *Builder) Const(name string, d *tensor.Dense, rows RowsClass) ValueID {
	if b.err != nil {
		return NoValue
	}
	if d == nil {
		return b.errf("const %q has no data", name)
	}
	out := b.newValue(rows, d.Cols, true)
	return b.push(Node{Op: OpConst, Name: name, X: NoValue, Y: NoValue, Out: out, Const: d})
}

// GEMM records out = x @ w, where w is a Const weight of shape
// cols(x) x n.
func (b *Builder) GEMM(name string, x, w ValueID, n int) ValueID {
	if b.err != nil {
		return NoValue
	}
	if !b.check(x, name) || !b.check(w, name) {
		return NoValue
	}
	wv := b.p.value(w)
	if !wv.Const {
		return b.errf("%s: GEMM weight must be a const", name)
	}
	xv := b.p.value(x)
	wd := b.nodeDefining(w).Const
	if wd.Rows != xv.Cols || wd.Cols != n {
		return b.errf("%s: weight shape %dx%d incompatible with input width %d and output width %d",
			name, wd.Rows, wd.Cols, xv.Cols, n)
	}
	out := b.newValue(xv.Rows, n, false)
	return b.push(Node{Op: OpGEMM, Name: name, X: x, Y: w, Out: out})
}

// Unary records an in-place elementwise chain over x.
func (b *Builder) Unary(name string, x ValueID, chain []Unary) ValueID {
	if b.err != nil {
		return NoValue
	}
	if !b.check(x, name) {
		return NoValue
	}
	if len(chain) == 0 {
		return b.errf("%s: empty unary chain", name)
	}
	xv := b.p.value(x)
	out := b.newValue(xv.Rows, xv.Cols, false)
	return b.push(Node{Op: OpUnary, Name: name, X: x, Y: NoValue, Out: out, Chain: chain})
}

// AddScaled records out = x + scale*y elementwise (same shapes).
func (b *Builder) AddScaled(name string, x, y ValueID, scale float32) ValueID {
	if b.err != nil {
		return NoValue
	}
	if !b.check(x, name) || !b.check(y, name) {
		return NoValue
	}
	xv, yv := b.p.value(x), b.p.value(y)
	if xv.Rows != yv.Rows || xv.Cols != yv.Cols {
		return b.errf("%s: add_scaled operand shapes differ (%s x %d vs %s x %d)",
			name, xv.Rows, xv.Cols, yv.Rows, yv.Cols)
	}
	out := b.newValue(xv.Rows, xv.Cols, false)
	return b.push(Node{Op: OpAddScaled, Name: name, X: x, Y: y, Out: out, Scale: scale})
}

// HeadMerge records the per-row column mean of x (width becomes 1).
func (b *Builder) HeadMerge(name string, x ValueID) ValueID {
	if b.err != nil {
		return NoValue
	}
	if !b.check(x, name) {
		return NoValue
	}
	xv := b.p.value(x)
	out := b.newValue(xv.Rows, 1, false)
	return b.push(Node{Op: OpHeadMerge, Name: name, X: x, Y: NoValue, Out: out})
}

// Concat records the column-wise concatenation [x | y].
func (b *Builder) Concat(name string, x, y ValueID) ValueID {
	if b.err != nil {
		return NoValue
	}
	if !b.check(x, name) || !b.check(y, name) {
		return NoValue
	}
	xv, yv := b.p.value(x), b.p.value(y)
	if xv.Rows != yv.Rows {
		return b.errf("%s: concat row classes differ (%s vs %s)", name, xv.Rows, yv.Rows)
	}
	out := b.newValue(xv.Rows, xv.Cols+yv.Cols, false)
	return b.push(Node{Op: OpConcat, Name: name, X: x, Y: y, Out: out})
}

// GraphOp records a uGrapher graph operator. a and bv bind to operands A and
// B; pass NoValue for Null kinds. outCols is the output feature width.
func (b *Builder) GraphOp(name string, op ops.OpInfo, a, bv ValueID, outCols int) ValueID {
	if b.err != nil {
		return NoValue
	}
	if err := op.Validate(); err != nil {
		return b.errf("%s: %v", name, err)
	}
	checkOperand := func(v ValueID, kind tensor.Kind, what string) bool {
		if kind == tensor.Null {
			if v != NoValue {
				b.errf("%s: operand %s must be absent for Null kind", name, what)
				return false
			}
			return true
		}
		if v == NoValue {
			b.errf("%s: operand %s missing for kind %s", name, what, kind)
			return false
		}
		if !b.check(v, name) {
			return false
		}
		want := VertexRows
		if kind == tensor.EdgeK {
			want = EdgeRows
		}
		if b.p.value(v).Rows != want {
			b.errf("%s: operand %s is %s-rows, kind %s needs %s-rows",
				name, what, b.p.value(v).Rows, kind, want)
			return false
		}
		return true
	}
	if !checkOperand(a, op.AKind, "A") || !checkOperand(bv, op.BKind, "B") {
		return NoValue
	}
	outRows := VertexRows
	if op.CKind == tensor.EdgeK {
		outRows = EdgeRows
	}
	out := b.newValue(outRows, outCols, false)
	return b.push(Node{Op: OpGraph, Name: name, X: a, Y: bv, Out: out, GOp: op})
}

// SetOutput marks the program's result value.
func (b *Builder) SetOutput(v ValueID) {
	if b.err != nil {
		return
	}
	if !b.check(v, "output") {
		return
	}
	b.p.Output = v
}

// nodeDefining returns the node that defines v (values are SSA).
func (b *Builder) nodeDefining(v ValueID) *Node {
	for i := range b.p.Nodes {
		if b.p.Nodes[i].Out == v {
			return &b.p.Nodes[i]
		}
	}
	return nil
}

// Finish validates and returns the recorded program.
func (b *Builder) Finish() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.p.Input == NoValue {
		return nil, fmt.Errorf("program: no input recorded")
	}
	if b.p.Output == NoValue {
		return nil, fmt.Errorf("program: no output set")
	}
	p := b.p
	return &p, nil
}
