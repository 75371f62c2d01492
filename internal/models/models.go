// Package models implements the paper's benchmark GNNs — GCN, GIN, GAT and
// GraphSage with sum/max/mean aggregators (§6 "Benchmarks") — as pipelines
// of dense operators and uGrapher graph operators.
//
// Each model runs through an Engine, which decides the schedule of every
// graph operator: the uGrapher engines tune or predict per operator and
// dataset, while the baseline engines (internal/baselines) use the fixed
// strategies of DGL, PyG and GNNAdvisor. Models execute in two modes:
// functional (real tensors, used by tests and examples) and cost-only
// (shapes only, used by the end-to-end experiments of Figs. 13-15, where
// the large datasets make full dense arithmetic in Go pointless — the
// simulated metrics depend only on shapes and graph structure).
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

// Model is one benchmark GNN.
type Model interface {
	Name() string
	// InferenceCost estimates end-to-end inference cycles for a graph with
	// the given input feature width and output classes.
	InferenceCost(g *graph.Graph, inFeat, classes int, eng Engine) (CostReport, error)
	// Forward runs real inference on (small) inputs, returning per-vertex
	// logits. Weights are deterministic pseudo-random per model.
	Forward(g *graph.Graph, x *tensor.Dense, classes int, eng Engine) (*tensor.Dense, error)
}

// exec is the shared execution context: it chains tensors through dense and
// graph stages, computing real values only in functional mode, and always
// accumulating simulated cost.
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

func newExec(g *graph.Graph, eng Engine, functional bool, model string) *exec {
	e := &exec{
		g: g, eng: eng, dev: eng.Device(),
		ctx:        context.Background(),
		functional: functional,
		rng:        rand.New(rand.NewSource(1234)),
		report:     CostReport{Model: model, Engine: eng.Name()},
	}
	// A cost-only pass lowers nothing, so it resolves no host backend.
	if functional {
		e.backend = computeBackend(eng)
	}
	return e
}

// stage is the model-building vocabulary: every model's run method drives a
// stage, and two implementations exist — exec (this file), which interprets
// the pipeline op by op, and recorder (program.go), which records it as a
// program.Program for whole-model compilation. Keeping one run method per
// model guarantees the two paths see identical stage sequences, weights and
// edge scalars.
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

// input wraps the caller-provided feature matrix.
func (e *exec) input(x *tensor.Dense, cols int) vt {
	return vt{kind: tensor.SrcV, cols: cols, data: x}
}

// weights materialises a deterministic random weight matrix in functional
// mode.
func (e *exec) weights(k, n int) *tensor.Dense {
	if !e.functional {
		return nil
	}
	w := tensor.NewDense(k, n)
	w.FillRandom(e.rng, 0.5)
	return w
}

// gemm applies a dense linear transform t @ W[k x n].
func (e *exec) gemm(name string, t vt, n int) vt {
	if e.err != nil {
		return vt{}
	}
	rows := e.rows(t.kind)
	cycles := gpu.GEMMCycles(e.dev, rows, t.cols, n)
	e.report.PerOp = append(e.report.PerOp, OpCost{Name: name, Kind: "dense", Cycles: cycles})
	e.report.Dense += cycles
	if e.training {
		e.chargeGEMMBackward(name, rows, t.cols, n)
	}
	out := vt{kind: t.kind, cols: n}
	if e.functional {
		w := e.weights(t.cols, n)
		out.data = tensor.MatMul(t.data, w)
	}
	return out
}

// fused implements stage from the engine's fusion capability.
func (e *exec) fused() bool { return e.eng.Fused() }

// chargeElementwise accounts one streaming op over n elements with `reads`
// extra operand streams (plus the backward twin in training mode).
func (e *exec) chargeElementwise(name string, n, reads int) {
	cycles := gpu.ElementwiseCycles(e.dev, n, reads)
	e.report.PerOp = append(e.report.PerOp, OpCost{Name: name, Kind: "dense", Cycles: cycles})
	e.report.Dense += cycles
	if e.training {
		e.report.PerOp = append(e.report.PerOp, OpCost{Name: name + "_bwd", Kind: "dense", Cycles: cycles})
		e.report.Dense += cycles
	}
}

// unary charges a streaming elementwise chain over t (relu, bias+relu,
// leaky-relu+exp, ...), applying it in place in functional mode.
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

// addScaled charges and computes t += scale*other in place on t.
func (e *exec) addScaled(name string, t, other vt, scale float32) vt {
	if e.err != nil {
		return vt{}
	}
	e.chargeElementwise(name, e.rows(t.kind)*t.cols, 1)
	if e.functional && other.data != nil {
		tensor.AddScaledInto(t.data, t.data, other.data, scale)
	}
	return t
}

// headMerge charges one read-reduce stream over t and produces its per-row
// column mean as a width-1 tensor.
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

// graphOp runs one graph operator through the engine's schedule.
// a and b become the A/B operands (b may be the zero vt for Null).
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
	}
	return out
}

// asKind retypes a vertex tensor operand (SrcV <-> DstV) without copying.
func asKind(t vt, kind tensor.Kind) vt {
	t.kind = kind
	return t
}

// finish seals the report.
func (e *exec) finish() (CostReport, error) {
	if e.err != nil {
		return CostReport{}, e.err
	}
	e.report.Total = e.report.Graph + e.report.Dense
	return e.report, nil
}

// All returns the paper's six benchmark models (§6): GCN, GIN, GAT, and the
// three GraphSage aggregator variants.
func All() []Model {
	return []Model{
		NewGCN(), NewGIN(), NewGAT(),
		NewSage(ops.GatherSum), NewSage(ops.GatherMax), NewSage(ops.GatherMean),
	}
}

// ForwardCtx is Model.Forward with cancellation: ctx is checked by every
// graph kernel at its backend's granularity, so a deadline interrupts a
// forward pass mid-model. Models that do not expose their stage pipeline
// fall back to an uncancellable Forward.
func ForwardCtx(ctx context.Context, m Model, g *graph.Graph, x *tensor.Dense, classes int, eng Engine) (*tensor.Dense, error) {
	type runner interface {
		run(st stage, h vt, classes int) vt
	}
	rm, ok := m.(runner)
	if !ok {
		return m.Forward(g, x, classes, eng)
	}
	e := newExec(g, eng, true, m.Name())
	e.ctx = ctx
	h := rm.run(e, e.input(x, x.Cols), classes)
	if _, err := e.finish(); err != nil {
		return nil, err
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
