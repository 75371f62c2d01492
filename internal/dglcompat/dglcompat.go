// Package dglcompat implements the paper's §5.3 framework integration: a
// drop-in analogue of DGL's message-passing interface whose graph operators
// execute through uGrapher instead of DGL's static kernels.
//
// DGL programs call update_all(message_fn, reduce_fn) and
// apply_edges(message_fn), passing built-in functions by name ("u_mul_e",
// "sum", ...). The integration layer (paper Fig. 10/11) recognises those
// names, translates them to op_info, and dispatches to the uGrapher
// interface — "the program development burden ... is limited only to the
// implementation of pattern recognition and switching table". This package
// is that switching table, in Go: user code keeps DGL's shape while every
// graph operator gains adaptive schedules.
package dglcompat

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// Graph mirrors DGL's DGLGraph surface: a structure plus named feature
// frames on sources, destinations and edges (srcdata/dstdata/edata).
type Graph struct {
	g *graph.Graph

	// SrcData / DstData / EData are the feature frames. In DGL a homogeneous
	// graph shares one node frame; here srcdata and dstdata alias the same
	// map, as DGL's do for non-bipartite graphs.
	nodeData map[string]*tensor.Dense
	edgeData map[string]*tensor.Dense

	dev *gpu.Device
	// tuner picks the schedule per operator (the paper's automatic mode).
	tuner *schedule.Tuner
	// backend computes the functional outputs (schedule cost still comes
	// from the simulator): the parallel backend, GOMAXPROCS workers.
	backend core.ExecBackend
}

// Wrap adapts a structural graph into the message-passing interface,
// targeting dev (defaults to V100).
func Wrap(g *graph.Graph, dev *gpu.Device) *Graph {
	if dev == nil {
		dev = gpu.V100()
	}
	w := &Graph{
		g:        g,
		nodeData: map[string]*tensor.Dense{},
		edgeData: map[string]*tensor.Dense{},
		dev:      dev,
		tuner:    schedule.NewTuner(gpu.WithMaxSampledBlocks(64)),
		backend:  core.NewParallelBackend(0),
	}
	return w
}

// SetNData stores a per-vertex feature tensor under name (DGL:
// g.srcdata[name] = x).
func (w *Graph) SetNData(name string, t *tensor.Dense) error {
	if t.Rows != w.g.NumVertices() {
		return fmt.Errorf("dglcompat: ndata %q has %d rows, graph has %d vertices",
			name, t.Rows, w.g.NumVertices())
	}
	w.nodeData[name] = t
	return nil
}

// SetEData stores a per-edge feature tensor under name (DGL: g.edata[name]).
func (w *Graph) SetEData(name string, t *tensor.Dense) error {
	if t.Rows != w.g.NumEdges() {
		return fmt.Errorf("dglcompat: edata %q has %d rows, graph has %d edges",
			name, t.Rows, w.g.NumEdges())
	}
	w.edgeData[name] = t
	return nil
}

// NData fetches a vertex frame.
func (w *Graph) NData(name string) (*tensor.Dense, bool) {
	t, ok := w.nodeData[name]
	return t, ok
}

// EData fetches an edge frame.
func (w *Graph) EData(name string) (*tensor.Dense, bool) {
	t, ok := w.edgeData[name]
	return t, ok
}

// MessageFn is a DGL built-in message function: binary ("u_mul_e") or copy
// ("copy_u", "copy_e"), with the field names it reads and the message field
// it writes. Build one with the constructors below, mirroring dgl.function.
type MessageFn struct {
	op       ops.EdgeOp
	aKind    tensor.Kind
	bKind    tensor.Kind
	aField   string
	bField   string
	outField string
	name     string
}

// ReduceFn is a DGL built-in reduce function ("sum", "max", ...): the
// message field it consumes and the vertex field it writes.
type ReduceFn struct {
	op       ops.GatherOp
	msgField string
	outField string
	name     string
}

func operandLetterKind(letter string) (tensor.Kind, error) {
	switch letter {
	case "u":
		return tensor.SrcV, nil
	case "v":
		return tensor.DstV, nil
	case "e":
		return tensor.EdgeK, nil
	default:
		return 0, fmt.Errorf("dglcompat: unknown operand %q (want u, v or e)", letter)
	}
}

// Binary builds a binary message function by DGL name, e.g.
// Binary("u_mul_e", "h", "w", "m"): message m = h[src] * w[edge].
func Binary(name, aField, bField, outField string) (MessageFn, error) {
	parts := strings.Split(name, "_")
	if len(parts) != 3 {
		return MessageFn{}, fmt.Errorf("dglcompat: bad binary message name %q", name)
	}
	aKind, err := operandLetterKind(parts[0])
	if err != nil {
		return MessageFn{}, err
	}
	bKind, err := operandLetterKind(parts[2])
	if err != nil {
		return MessageFn{}, err
	}
	eop, err := ops.ParseEdgeOp(parts[1])
	if err != nil || !eop.IsBinary() {
		return MessageFn{}, fmt.Errorf("dglcompat: %q is not a binary op", parts[1])
	}
	return MessageFn{
		op: eop, aKind: aKind, bKind: bKind,
		aField: aField, bField: bField, outField: outField, name: name,
	}, nil
}

// Reduce builds a reduce function by DGL name ("sum", "max", "min", "mean").
func Reduce(name, msgField, outField string) (ReduceFn, error) {
	gop, err := ops.ParseGatherOp(name)
	if err != nil || !gop.IsReduction() {
		return ReduceFn{}, fmt.Errorf("dglcompat: %q is not a reduce op", name)
	}
	return ReduceFn{op: gop, msgField: msgField, outField: outField, name: name}, nil
}

// field resolves an operand tensor by kind and name.
func (w *Graph) field(kind tensor.Kind, name string) (*tensor.Dense, error) {
	var frame map[string]*tensor.Dense
	if kind == tensor.EdgeK {
		frame = w.edgeData
	} else {
		frame = w.nodeData
	}
	t, ok := frame[name]
	if !ok {
		return nil, fmt.Errorf("dglcompat: missing field %q", name)
	}
	return t, nil
}

// opInfoFor assembles the op_info for a message(+reduce) pair — the
// "pattern recognition and switching table" of the paper's §5.3.
func (w *Graph) opInfoFor(msg MessageFn, reduce *ReduceFn) (ops.OpInfo, core.Operands, int, error) {
	info := ops.OpInfo{
		EdgeOp: msg.op,
		AKind:  msg.aKind,
		BKind:  msg.bKind,
	}
	operands := core.Operands{A: tensor.NullTensor, B: tensor.NullTensor}
	feat := 0
	if msg.aKind != tensor.Null {
		t, err := w.field(msg.aKind, msg.aField)
		if err != nil {
			return ops.OpInfo{}, core.Operands{}, 0, err
		}
		operands.A = tensor.Typed{Kind: msg.aKind, T: t}
		if t.Cols > feat {
			feat = t.Cols
		}
	}
	if msg.bKind != tensor.Null {
		t, err := w.field(msg.bKind, msg.bField)
		if err != nil {
			return ops.OpInfo{}, core.Operands{}, 0, err
		}
		operands.B = tensor.Typed{Kind: msg.bKind, T: t}
		if t.Cols > feat {
			feat = t.Cols
		}
	}
	if reduce == nil {
		info.GatherOp = ops.GatherCopyRHS
		info.CKind = tensor.EdgeK
		info.Name = msg.name
		out := tensor.NewDense(w.g.NumEdges(), feat)
		operands.C = tensor.Typed{Kind: tensor.EdgeK, T: out}
		return info, operands, feat, nil
	}
	info.GatherOp = reduce.op
	info.CKind = tensor.DstV
	info.Name = msg.name + "." + reduce.name
	out := tensor.NewDense(w.g.NumVertices(), feat)
	operands.C = tensor.Typed{Kind: tensor.DstV, T: out}
	return info, operands, feat, nil
}

// runOp compiles, schedules and executes, storing the output field.
func (w *Graph) runOp(info ops.OpInfo, operands core.Operands, feat int, outField string) (gpu.Metrics, error) {
	cols := func(t tensor.Typed) int {
		if t.T == nil {
			return 0
		}
		return t.T.Cols
	}
	task := schedule.Task{
		Graph: w.g, Op: info, Feat: feat,
		ACols: cols(operands.A), BCols: cols(operands.B),
		Device: w.dev,
	}
	sched := core.DefaultSchedule
	if best, ok := w.tuner.Tune(task); ok {
		sched = best.Schedule
	}
	// RunWith lowers once through the backend abstraction: operand
	// validation happens at lowering, not per execution.
	res, err := core.RunWith(w.backend, w.g, info, operands, sched, w.dev)
	if err != nil {
		return gpu.Metrics{}, err
	}
	if info.CKind == tensor.EdgeK {
		w.edgeData[outField] = operands.C.T
	} else {
		w.nodeData[outField] = operands.C.T
	}
	return res.Metrics, nil
}

// UpdateAll is DGL's update_all(message_fn, reduce_fn): a fused aggregation
// through uGrapher. The result lands in dstdata[reduce.outField].
func (w *Graph) UpdateAll(msg MessageFn, reduce ReduceFn) (gpu.Metrics, error) {
	info, operands, feat, err := w.opInfoFor(msg, &reduce)
	if err != nil {
		return gpu.Metrics{}, err
	}
	return w.runOp(info, operands, feat, reduce.outField)
}

// ApplyEdges is DGL's apply_edges(message_fn): message creation. The result
// lands in edata[msg.outField].
func (w *Graph) ApplyEdges(msg MessageFn) (gpu.Metrics, error) {
	info, operands, feat, err := w.opInfoFor(msg, nil)
	if err != nil {
		return gpu.Metrics{}, err
	}
	return w.runOp(info, operands, feat, msg.outField)
}
