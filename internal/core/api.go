package core

import (
	"context"
	"fmt"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
)

// This file is the uGrapher API of the paper's Fig. 9:
//
//	uGrapher(graph_tensor, op_info, parallel_info)
//
// Run is the full call — compile, execute functionally, and simulate for
// metrics. Estimate skips functional execution (used by tuners, which only
// need predicted cost). When the caller passes no parallel_info, the paper's
// interface picks a strategy automatically; that lives in internal/schedule
// (grid search) and internal/predictor (learned model) to keep this package
// dependency-free.

// Result pairs the functional output (written into the C operand) with the
// simulated performance metrics.
type Result struct {
	Metrics gpu.Metrics
}

// Run executes the graph operator described by op on g with the given
// operands under schedule sched, computing on the default host backend and
// simulating on dev. The output is written into o.C.T; metrics are
// returned.
func Run(g *graph.Graph, op ops.OpInfo, o Operands, sched Schedule, dev *gpu.Device) (Result, error) {
	return RunWith(DefaultBackend(), g, op, o, sched, dev)
}

// RunWith is Run with an explicit compute backend: the plan is lowered
// once (validating operands once), executed on b, and simulated on dev for
// the schedule-cost metrics.
func RunWith(b ExecBackend, g *graph.Graph, op ops.OpInfo, o Operands, sched Schedule, dev *gpu.Device) (Result, error) {
	return RunWithCtx(context.Background(), b, g, op, o, sched, dev)
}

// RunWithCtx is RunWith with cancellation: the compute pass honours ctx at
// the backend's cancellation granularity (chunk claims on the parallel
// backend). The simulation pass is not interruptible; it only runs after a
// successful compute pass.
func RunWithCtx(ctx context.Context, b ExecBackend, g *graph.Graph, op ops.OpInfo, o Operands, sched Schedule, dev *gpu.Device) (Result, error) {
	p, err := Compile(op, sched)
	if err != nil {
		return Result{}, err
	}
	ck, err := b.Lower(p, g, o)
	if err != nil {
		return Result{}, err
	}
	if err := ck.RunCtx(ctx); err != nil {
		return Result{}, err
	}
	k, err := p.KernelFor(g, o, dev)
	if err != nil {
		return Result{}, err
	}
	return Result{Metrics: gpu.Simulate(dev, k)}, nil
}

// Estimate simulates the operator's cost without computing outputs. feat is
// the output feature width; aCols/bCols are operand widths (1 = broadcast
// scalar, 0 = absent).
func Estimate(g *graph.Graph, op ops.OpInfo, feat, aCols, bCols int, sched Schedule, dev *gpu.Device, opts ...gpu.Option) (gpu.Metrics, error) {
	p, err := Compile(op, sched)
	if err != nil {
		return gpu.Metrics{}, err
	}
	k := p.Kernel(g, feat, aCols, bCols, dev)
	return gpu.Simulate(dev, k, opts...), nil
}

// OperandWidths derives (feat, aCols, bCols) from an operator and its
// natural widths: full-width vertex/edge features of width f, except that
// widthOneB marks B as a broadcast scalar (e.g. edge weights).
func OperandWidths(op ops.OpInfo, f int, widthOneB bool) (feat, aCols, bCols int) {
	feat = f
	if op.AKind != 0 {
		aCols = f
	}
	if op.BKind != 0 {
		bCols = f
		if widthOneB {
			bCols = 1
		}
	}
	return feat, aCols, bCols
}

// GenerateSource renders the plan as the CUDA-like kernel uGrapher's code
// generator would emit: the strategy template with the operator's device
// function inlined, fusion applied, and atomic or plain stores chosen by the
// analysis passes. It exists for inspection and documentation — the
// simulator consumes the Plan directly.
func (p *Plan) GenerateSource() string {
	op := p.Op
	s := p.Schedule
	name := op.Name
	if name == "" {
		name = "graph_op"
	}
	// Kernel names must be identifiers; operator labels may carry dots
	// (DGL-style "u_mul_e.sum").
	clean := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '.' || c == '-' || c == ' ' {
			c = '_'
		}
		clean = append(clean, c)
	}
	name = string(clean)

	load := func(d string, kind string) string {
		switch kind {
		case "Src_V":
			return d + "[src * F + f]"
		case "Dst_V":
			return d + "[dst * F + f]"
		case "Edge":
			return d + "[edge * F + f]"
		default:
			return "0.f"
		}
	}
	aExpr := load("A", op.AKind.String())
	bExpr := load("B", op.BKind.String())
	var edgeExpr string
	switch op.EdgeOp {
	case ops.CopyLHS:
		edgeExpr = aExpr
	case ops.CopyRHS, ops.EdgeNull:
		edgeExpr = bExpr
	case ops.EdgeAdd:
		edgeExpr = aExpr + " + " + bExpr
	case ops.EdgeSub:
		edgeExpr = aExpr + " - " + bExpr
	case ops.EdgeMul:
		edgeExpr = aExpr + " * " + bExpr
	case ops.EdgeDiv:
		edgeExpr = aExpr + " / " + bExpr
	}

	var body string
	outIdx := "dst * F + f"
	if op.CKind.String() == "Edge" {
		outIdx = "edge * F + f"
	}
	switch {
	case !op.GatherOp.IsReduction():
		body = fmt.Sprintf("C[%s] = %s;", outIdx, edgeExpr)
	case p.NeedsAtomic:
		switch op.GatherOp {
		case ops.GatherSum, ops.GatherMean:
			body = fmt.Sprintf("atomicAdd(&C[%s], %s);", outIdx, edgeExpr)
		case ops.GatherMax:
			body = fmt.Sprintf("atomicMax(&C[%s], %s);", outIdx, edgeExpr)
		default:
			body = fmt.Sprintf("atomicMin(&C[%s], %s);", outIdx, edgeExpr)
		}
	default:
		switch op.GatherOp {
		case ops.GatherSum, ops.GatherMean:
			body = fmt.Sprintf("acc[f] += %s;", edgeExpr)
		case ops.GatherMax:
			body = fmt.Sprintf("acc[f] = max(acc[f], %s);", edgeExpr)
		default:
			body = fmt.Sprintf("acc[f] = min(acc[f], %s);", edgeExpr)
		}
	}
	if !p.Fused {
		// Unfused form materialises the intermediate, as the pre-pass-1 code
		// would; shown for contrast when fusion is inapplicable.
		body = fmt.Sprintf("float edge_tmp = %s;\n        %s",
			edgeExpr, replaceExpr(body, edgeExpr, "edge_tmp"))
	}

	header := fmt.Sprintf(
		"// generated by uGrapher: op=%s schedule=%s fused=%v atomic=%v\n",
		op, s, p.Fused, p.NeedsAtomic)
	var template string
	switch s.Strategy {
	case ThreadVertex:
		template = `__global__ void %s_tv(...) {
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  for (int dst = t*%d; dst < min(V, (t+1)*%d); ++dst) {
    for (int i = in_ptr[dst]; i < in_ptr[dst+1]; ++i) {
      int src = in_src[i], edge = in_edge[i];
      for (int f = tile_of(t); f < F; f += %d) {
        %s
      }
    }
  }
}`
	case ThreadEdge:
		template = `__global__ void %s_te(...) {
  int t = blockIdx.x * blockDim.x + threadIdx.x;
  for (int edge = t*%d; edge < min(E, (t+1)*%d); ++edge) {
    int src = edge_src[edge], dst = edge_dst[edge];
    for (int f = tile_of(t); f < F; f += %d) {
      %s
    }
  }
}`
	case WarpVertex:
		template = `__global__ void %s_wv(...) {
  int w = global_warp_id(); int lane = threadIdx.x %% 32;
  for (int dst = w*%d; dst < min(V, (w+1)*%d); ++dst) {
    for (int i = in_ptr[dst]; i < in_ptr[dst+1]; ++i) {
      int src = in_src[i], edge = in_edge[i];
      for (int f = chunk_of(w)*32 + lane; f < F; f += 32*%d) {
        %s
      }
    }
  }
}`
	default:
		template = `__global__ void %s_we(...) {
  int w = global_warp_id(); int lane = threadIdx.x %% 32;
  for (int edge = w*%d; edge < min(E, (w+1)*%d); ++edge) {
    int src = edge_src[edge], dst = edge_dst[edge];
    for (int f = chunk_of(w)*32 + lane; f < F; f += 32*%d) {
      %s
    }
  }
}`
	}
	return header + fmt.Sprintf(template, name, s.Group, s.Group, s.Tile, body)
}

func replaceExpr(body, from, to string) string {
	// Minimal single replacement for readability of the generated source.
	for i := 0; i+len(from) <= len(body); i++ {
		if body[i:i+len(from)] == from {
			return body[:i] + to + body[i+len(from):]
		}
	}
	return body
}
