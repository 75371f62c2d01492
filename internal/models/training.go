package models

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

// Training-step cost estimation — an extension beyond the paper (which
// evaluates inference only). The backward pass of every graph operator is
// itself a graph operator on the REVERSED graph: an aggregation's input
// gradient gathers output gradients along transposed edges, and a binary
// operator additionally needs a message-creation kernel for its second
// operand's per-edge gradient. uGrapher's abstraction therefore covers
// training with no new kernels — backward ops go through the same engine
// and get their own tuned schedules (on a graph whose degree distribution
// is the transpose's).

// reversedGraph lazily materialises the transpose.
func (e *exec) reversedGraph() *graph.Graph {
	if e.reversed == nil {
		e.reversed = e.g.Reverse()
	}
	return e.reversed
}

// chargeGEMMBackward adds dX = dY @ W^T and dW = X^T @ dY.
func (e *exec) chargeGEMMBackward(name string, rows, k, n int) {
	dx := gpu.GEMMCycles(e.dev, rows, n, k)
	dw := gpu.GEMMCycles(e.dev, k, rows, n)
	e.report.PerOp = append(e.report.PerOp,
		OpCost{Name: name + "_bwd_dx", Kind: "dense", Cycles: dx},
		OpCost{Name: name + "_bwd_dw", Kind: "dense", Cycles: dw},
	)
	e.report.Dense += dx + dw
}

// chargeGraphBackward estimates the backward kernels of a graph operator:
// the primary gradient runs the operator's dataflow on the reversed graph;
// binary operators add a per-edge gradient (message creation).
func (e *exec) chargeGraphBackward(name string, op ops.OpInfo, feat, aCols, bCols int) {
	rg := e.reversedGraph()

	// Primary gradient: gradients of the output flow back to the A operand.
	// For an aggregation (C = Dst_V) that is an aggregation over reversed
	// edges; for message creation (C = Edge) it is an edge-to-vertex
	// reduction of the per-edge gradients.
	bwd := ops.OpInfo{
		Name:     name + "_bwd",
		EdgeOp:   op.EdgeOp,
		GatherOp: ops.GatherSum,
		AKind:    tensor.SrcV,
		BKind:    op.BKind,
		CKind:    tensor.DstV,
	}
	if !bwd.EdgeOp.IsBinary() {
		bwd.EdgeOp = ops.CopyLHS
		bwd.BKind = tensor.Null
		bCols = 0
	} else if bwd.BKind == tensor.Null {
		bwd.EdgeOp = ops.CopyLHS
	}
	e.estimateAux(bwd, rg, feat, feat, bCols)

	// Secondary gradient for binary operators: per-edge gradient of the B
	// operand (a message-creation kernel on the forward graph).
	if op.EdgeOp.IsBinary() && op.BKind != tensor.Null {
		edgeGrad := ops.OpInfo{
			Name:     name + "_bwd_db",
			EdgeOp:   ops.EdgeMul,
			GatherOp: ops.GatherCopyRHS,
			AKind:    tensor.SrcV,
			BKind:    tensor.DstV,
			CKind:    tensor.EdgeK,
		}
		e.estimateAux(edgeGrad, e.g, feat, feat, feat)
	}
}

// estimateAux runs one auxiliary (backward) operator through the engine on
// graph g, recording its cost.
func (e *exec) estimateAux(op ops.OpInfo, g *graph.Graph, feat, aCols, bCols int) {
	if e.err != nil {
		return
	}
	task := schedule.Task{Graph: g, Op: op, Feat: feat, ACols: aCols, BCols: bCols, Device: e.dev}
	sched := e.eng.ScheduleFor(task)
	metrics, err := core.Estimate(g, op, feat, aCols, bCols, sched, e.dev,
		gpu.WithMaxSampledBlocks(96))
	if err != nil {
		e.err = err
		return
	}
	metrics.Cycles += e.eng.GraphOpOverheadCycles()
	e.report.PerOp = append(e.report.PerOp, OpCost{
		Name: op.Name, Kind: "graph", Cycles: metrics.Cycles, Schedule: sched, Metrics: metrics,
	})
	e.report.Graph += metrics.Cycles
}

// TrainingCost estimates one training step (forward + backward) of a model
// through an engine: the same stage pipeline InferenceCost prices, with each
// stage's backward kernels charged beside it. Optimiser update cost
// (elementwise over parameters) is negligible for GNN-sized weights and not
// charged.
func TrainingCost(m Model, g *graph.Graph, inFeat, classes int, eng Engine) (CostReport, error) {
	return price(m, g, inFeat, classes, eng, true)
}
