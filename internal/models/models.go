// Package models implements the paper's benchmark GNNs — GCN, GIN, GAT and
// GraphSage with sum/max/mean aggregators (§6 "Benchmarks") — as pipelines
// of dense operators and uGrapher graph operators.
//
// Each model is written once, as a run method over the stage interface, and
// the package drives that one pipeline three ways: InferenceCost and
// TrainingCost price it (shapes only, simulated cycles through the engine's
// schedules — the end-to-end experiments of Figs. 13-15), ForwardCtx
// computes it op by op on real tensors (the oracle tests and examples check
// against), and Record records it as a program for CompileModel. The Engine
// decides the schedule of every graph operator: the uGrapher engines tune or
// predict per operator and dataset, while the baseline engines
// (internal/baselines) use the fixed strategies of DGL, PyG and GNNAdvisor.
package models

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/program"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// Engine chooses a schedule for each graph operator. Implementations: the
// uGrapher tuner/predictor engines (this package) and the fixed baselines
// (internal/baselines).
type Engine interface {
	Name() string
	Device() *gpu.Device
	// ScheduleFor returns the schedule this system would run the task with.
	ScheduleFor(t schedule.Task) core.Schedule
	// Fused reports whether the engine fuses message creation into
	// aggregation (DGL and uGrapher do; PyG materialises edge messages).
	Fused() bool
	// GraphOpOverheadCycles is the host-side dispatch cost charged per graph
	// operator launch: Python framework dispatch for DGL/PyG (tens of us),
	// a thin runtime for GNNAdvisor, a compiled call for uGrapher. This is
	// a real and measured component of the paper's end-to-end gaps — on
	// small graphs the kernels themselves are microseconds, so dispatch
	// dominates the baselines' time.
	GraphOpOverheadCycles() float64
}

// BackendProvider is optionally implemented by engines that pin the host
// compute backend functional execution runs on (reference interpreter,
// parallel worker pool, or the resilient ladder over it). Engines without
// it use core.NewParallelBackend(0). Note the separation: ScheduleFor
// decides the simulated schedule *cost*, the compute backend only decides
// how the functional outputs are produced.
type BackendProvider interface {
	ComputeBackend() core.ExecBackend
}

// computeBackend resolves an engine's compute backend.
func computeBackend(eng Engine) core.ExecBackend {
	if p, ok := eng.(BackendProvider); ok {
		if b := p.ComputeBackend(); b != nil {
			return b
		}
	}
	return core.NewParallelBackend(0)
}

// OpCost records one executed operator in a cost report.
type OpCost struct {
	Name     string
	Kind     string // "graph" or "dense"
	Cycles   float64
	Schedule core.Schedule // zero value for dense ops
	Metrics  gpu.Metrics   // populated for graph ops
}

// CostReport sums the simulated cycles of an inference pass.
type CostReport struct {
	Model  string
	Engine string
	Total  float64
	Graph  float64
	Dense  float64
	PerOp  []OpCost
}

// Model is one benchmark GNN: a name and its stage pipeline. The package
// functions InferenceCost, TrainingCost, ForwardCtx and Record drive it.
type Model interface {
	Name() string
	run(st stage, h vt, classes int) vt
}

// exec is the op-by-op stage. In functional mode it computes real tensors on
// the engine's compute backend and prices nothing; otherwise it computes
// nothing and accumulates simulated cost from shapes.
type exec struct {
	g          *graph.Graph
	eng        Engine
	dev        *gpu.Device
	backend    core.ExecBackend
	ctx        context.Context
	functional bool
	training   bool
	reversed   *graph.Graph
	rng        *rand.Rand
	report     CostReport
	err        error
}

// stage is the model-building vocabulary: every model's run method drives a
// stage, and two implementations exist — exec (this file), which computes
// (ForwardCtx) or prices (InferenceCost, TrainingCost) the pipeline op by op,
// and recorder (program.go), which records it as a program.Program for
// whole-model compilation. Keeping one run method per model guarantees every
// driver sees identical stage sequences, weights and edge scalars.
type stage interface {
	// fused reports whether aggregations run as single fused kernels; the
	// recorder always answers false (programs record the decomposed form and
	// re-fuse at compile time when the engine supports it).
	fused() bool
	edgeScalar() vt
	gemm(name string, t vt, n int) vt
	// unary applies an elementwise chain in place; reads counts extra
	// operand streams for the cost model.
	unary(name string, t vt, reads int, chain []program.Unary) vt
	// addScaled computes t + scale*other in place on t.
	addScaled(name string, t, other vt, scale float32) vt
	// headMerge reduces t's columns to their per-row mean (width 1).
	headMerge(name string, t vt) vt
	// concat joins columns [a | b]; charged as part of the following GEMM.
	concat(name string, a, b vt) vt
	graphOp(name string, op ops.OpInfo, a, b vt, outCols int) vt
}

// vt is a virtual tensor: a shape plus, in functional mode, real data, and,
// when recording, the program value it names.
type vt struct {
	kind tensor.Kind // SrcV/DstV for vertex rows, EdgeK for edge rows
	cols int
	data *tensor.Dense
	val  program.ValueID
}

func (e *exec) rows(kind tensor.Kind) int {
	if kind == tensor.EdgeK {
		return e.g.NumEdges()
	}
	return e.g.NumVertices()
}

// gemm applies a dense linear transform t @ W[k x n], W deterministic random.
func (e *exec) gemm(name string, t vt, n int) vt {
	if e.err != nil {
		return vt{}
	}
	out := vt{kind: t.kind, cols: n}
	if e.functional {
		w := tensor.NewDense(t.cols, n)
		w.FillRandom(e.rng, 0.5)
		out.data = tensor.MatMul(t.data, w)
		return out
	}
	rows := e.rows(t.kind)
	cycles := gpu.GEMMCycles(e.dev, rows, t.cols, n)
	e.report.PerOp = append(e.report.PerOp, OpCost{Name: name, Kind: "dense", Cycles: cycles})
	e.report.Dense += cycles
	if e.training {
		e.chargeGEMMBackward(name, rows, t.cols, n)
	}
	return out
}

// fused implements stage from the engine's fusion capability.
func (e *exec) fused() bool { return e.eng.Fused() }

// chargeElementwise accounts one streaming op over n elements with `reads`
// extra operand streams (plus the backward twin in training mode). A
// functional exec charges nothing.
func (e *exec) chargeElementwise(name string, n, reads int) {
	if e.functional {
		return
	}
	cycles := gpu.ElementwiseCycles(e.dev, n, reads)
	e.report.PerOp = append(e.report.PerOp, OpCost{Name: name, Kind: "dense", Cycles: cycles})
	e.report.Dense += cycles
	if e.training {
		e.report.PerOp = append(e.report.PerOp, OpCost{Name: name + "_bwd", Kind: "dense", Cycles: cycles})
		e.report.Dense += cycles
	}
}

// unary applies a streaming elementwise chain over t in place (relu,
// bias+relu, leaky-relu+exp, ...), or charges it.
func (e *exec) unary(name string, t vt, reads int, chain []program.Unary) vt {
	if e.err != nil {
		return vt{}
	}
	e.chargeElementwise(name, e.rows(t.kind)*t.cols, reads)
	if e.functional {
		for _, u := range chain {
			u.Apply(t.data)
		}
	}
	return t
}

// addScaled computes t += scale*other in place on t, or charges it.
func (e *exec) addScaled(name string, t, other vt, scale float32) vt {
	if e.err != nil {
		return vt{}
	}
	e.chargeElementwise(name, e.rows(t.kind)*t.cols, 1)
	if e.functional {
		tensor.AddScaledInto(t.data, t.data, other.data, scale)
	}
	return t
}

// headMerge produces t's per-row column mean as a width-1 tensor, or charges
// one read-reduce stream over t.
func (e *exec) headMerge(name string, t vt) vt {
	if e.err != nil {
		return vt{}
	}
	e.chargeElementwise(name, e.rows(t.kind)*t.cols, 1)
	out := vt{kind: t.kind, cols: 1}
	if e.functional {
		out.data = tensor.NewDense(e.rows(t.kind), 1)
		tensor.RowMeanInto(out.data, t.data)
	}
	return out
}

// concat joins [a | b]; no cost is charged — the paper's models fold the
// concatenation into the following GEMM's K dimension.
func (e *exec) concat(name string, a, b vt) vt {
	if e.err != nil {
		return vt{}
	}
	out := vt{kind: a.kind, cols: a.cols + b.cols}
	if e.functional {
		out.data = tensor.Concat(a.data, b.data)
	}
	return out
}

// graphOp runs one graph operator under the engine's schedule, or prices it
// there. a and b become the A/B operands (b may be the zero vt for Null).
// The functional pass asks for the schedule too: the reference
// interpreter's traversal, and so its rounding, follows it.
func (e *exec) graphOp(name string, op ops.OpInfo, a, b vt, outCols int) vt {
	if e.err != nil {
		return vt{}
	}
	task := schedule.Task{Graph: e.g, Op: op, Feat: outCols, Device: e.dev}
	if op.AKind != tensor.Null {
		task.ACols = a.cols
	}
	if op.BKind != tensor.Null {
		task.BCols = b.cols
	}
	op.Name = name
	sched := e.eng.ScheduleFor(task)
	out := vt{kind: op.CKind, cols: outCols}
	if e.functional {
		out.data = tensor.NewDense(e.rows(op.CKind), outCols)
		operands := core.Operands{
			A: tensor.Typed{Kind: op.AKind, T: a.data},
			B: tensor.Typed{Kind: op.BKind, T: b.data},
			C: tensor.Typed{Kind: op.CKind, T: out.data},
		}
		plan, err := core.Compile(op, sched)
		if err != nil {
			e.err = err
			return vt{}
		}
		// Lowering validates the operands once; Run skips re-validation.
		kern, err := e.backend.Lower(plan, e.g, operands)
		if err != nil {
			e.err = err
			return vt{}
		}
		if err := kern.RunCtx(e.ctx); err != nil {
			e.err = err
			return vt{}
		}
		return out
	}
	metrics, err := core.Estimate(e.g, op, outCols, task.ACols, task.BCols, sched, e.dev,
		gpu.WithMaxSampledBlocks(96))
	if err != nil {
		e.err = fmt.Errorf("models: %s: %w", name, err)
		return vt{}
	}
	metrics.Cycles += e.eng.GraphOpOverheadCycles()
	e.report.PerOp = append(e.report.PerOp, OpCost{
		Name: name, Kind: "graph", Cycles: metrics.Cycles, Schedule: sched, Metrics: metrics,
	})
	e.report.Graph += metrics.Cycles
	if e.training {
		e.chargeGraphBackward(name, op, outCols, task.ACols, task.BCols)
	}
	return out
}

// asKind retypes a vertex tensor operand (SrcV <-> DstV) without copying.
func asKind(t vt, kind tensor.Kind) vt {
	t.kind = kind
	return t
}

// All returns the paper's six benchmark models (§6): GCN, GIN, GAT, and the
// three GraphSage aggregator variants.
func All() []Model {
	return []Model{
		NewGCN(), NewGIN(), NewGAT(),
		NewSage(ops.GatherSum), NewSage(ops.GatherMax), NewSage(ops.GatherMean),
	}
}

// InferenceCost prices one inference pass of m through eng for a graph with
// inFeat input features and classes output classes: shapes only, simulated
// cycles per operator under the engine's schedules.
func InferenceCost(m Model, g *graph.Graph, inFeat, classes int, eng Engine) (CostReport, error) {
	return price(m, g, inFeat, classes, eng, false)
}

// price runs m's pipeline on a pricing exec; training adds every stage's
// backward kernels.
func price(m Model, g *graph.Graph, inFeat, classes int, eng Engine, training bool) (CostReport, error) {
	e := &exec{
		g: g, eng: eng, dev: eng.Device(), training: training,
		report: CostReport{Model: m.Name(), Engine: eng.Name()},
	}
	m.run(e, vt{kind: tensor.SrcV, cols: inFeat}, classes)
	if e.err != nil {
		return CostReport{}, e.err
	}
	e.report.Total = e.report.Graph + e.report.Dense
	return e.report, nil
}

// ForwardCtx runs real inference of m on x through eng's schedules and
// compute backend, op by op, returning per-vertex logits; weights are
// deterministic per model and identical to the ones Record embeds. It is the
// oracle compiled programs are checked against, and it computes only: no
// operator is priced. ctx is checked by every graph kernel at its backend's
// granularity, so a deadline interrupts a pass mid-model.
func ForwardCtx(ctx context.Context, m Model, g *graph.Graph, x *tensor.Dense, classes int, eng Engine) (*tensor.Dense, error) {
	e := &exec{
		g: g, eng: eng, dev: eng.Device(), backend: computeBackend(eng), ctx: ctx,
		functional: true, rng: rand.New(rand.NewSource(1234)),
	}
	h := m.run(e, vt{kind: tensor.SrcV, cols: x.Cols, data: x}, classes)
	if e.err != nil {
		return nil, e.err
	}
	return h.data, nil
}

// ByName resolves a model by its benchmark name ("GCN", "SSum", ...).
func ByName(name string) (Model, error) {
	for _, m := range All() {
		if strings.EqualFold(m.Name(), name) {
			return m, nil
		}
	}
	return nil, fmt.Errorf("models: unknown model %q", name)
}
