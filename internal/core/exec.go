package core

import (
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// Functional execution of a compiled plan: computes the operator's real
// output. The strategy determines traversal order (vertex-centric or
// edge-centric), which can change floating-point reduction order but not the
// result up to rounding; tests verify all schedules agree with the reference
// loop within tolerance.

// fetcher returns the operand value for (edge, src, dst, feature). Width-1
// operands broadcast across the feature dimension.
type fetcher func(e, u, v int32, f int) float32

func makeFetcher(t tensor.Typed) fetcher {
	switch t.Kind {
	case tensor.Null:
		return func(e, u, v int32, f int) float32 { return 0 }
	case tensor.SrcV:
		d := t.T
		if d.Cols == 1 {
			return func(e, u, v int32, f int) float32 { return d.Data[u] }
		}
		return func(e, u, v int32, f int) float32 { return d.Data[int(u)*d.Cols+f] }
	case tensor.DstV:
		d := t.T
		if d.Cols == 1 {
			return func(e, u, v int32, f int) float32 { return d.Data[v] }
		}
		return func(e, u, v int32, f int) float32 { return d.Data[int(v)*d.Cols+f] }
	case tensor.EdgeK:
		d := t.T
		if d.Cols == 1 {
			return func(e, u, v int32, f int) float32 { return d.Data[e] }
		}
		return func(e, u, v int32, f int) float32 { return d.Data[int(e)*d.Cols+f] }
	default:
		// Invariant, not input-reachable: validateOperands rejects unknown
		// operand kinds before any backend lowers a fetcher, so reaching this
		// means a new tensor.Kind was added without a fetcher.
		panic("core: bad operand kind")
	}
}

// Execute runs the plan functionally on g with the sequential reference
// interpreter, writing the output into o.C.T. Callers that want the
// multi-core host executor lower through an ExecBackend
// instead; Execute stays the semantic oracle.
func (p *Plan) Execute(g *graph.Graph, o Operands) error {
	return p.ExecuteOn(ReferenceBackend(), g, o)
}

// executeMessageCreation computes per-edge outputs. Traversal order follows
// the strategy but each edge is written exactly once, so order is
// immaterial.
func (p *Plan) executeMessageCreation(g *graph.Graph, o Operands, fa, fb fetcher, f int) {
	out := o.C.T
	eop := p.Op.EdgeOp
	if p.Schedule.Strategy.VertexParallel() {
		for v := int32(0); v < int32(g.NumVertices()); v++ {
			srcs, eids := g.InEdges(v)
			for i, e := range eids {
				u := srcs[i]
				row := out.Row(int(e))
				for j := 0; j < f; j++ {
					row[j] = eop.Apply(fa(e, u, v, j), fb(e, u, v, j))
				}
			}
		}
		return
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		u, v := g.EdgeEndpoints(e)
		row := out.Row(int(e))
		for j := 0; j < f; j++ {
			row[j] = eop.Apply(fa(e, u, v, j), fb(e, u, v, j))
		}
	}
}

// executeVertexCentric accumulates each destination's reduction in registers
// (the vertex-parallel kernels' behaviour: one owner per output row). acc is
// caller-provided scratch of at least f floats, so lowered kernels can run
// repeatedly without allocating.
func (p *Plan) executeVertexCentric(g *graph.Graph, o Operands, fa, fb fetcher, f int, acc []float32) {
	out := o.C.T
	eop, gop := p.Op.EdgeOp, p.Op.GatherOp
	identity := gop.Identity()
	acc = acc[:f]
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		srcs, eids := g.InEdges(v)
		row := out.Row(int(v))
		if len(eids) == 0 {
			for j := range row {
				row[j] = 0 // zero-degree convention (DGL): empty reduction is 0
			}
			continue
		}
		for j := range acc {
			acc[j] = identity
		}
		for i, e := range eids {
			u := srcs[i]
			for j := 0; j < f; j++ {
				acc[j] = gop.Combine(acc[j], eop.Apply(fa(e, u, v, j), fb(e, u, v, j)))
			}
		}
		if gop == ops.GatherMean {
			inv := 1 / float32(len(eids))
			for j := range acc {
				acc[j] *= inv
			}
		}
		copy(row, acc)
	}
}

// executeEdgeCentric streams edges in id order, reducing into the output
// tensor directly (the edge-parallel kernels' atomic-update behaviour).
func (p *Plan) executeEdgeCentric(g *graph.Graph, o Operands, fa, fb fetcher, f int) {
	out := o.C.T
	eop, gop := p.Op.EdgeOp, p.Op.GatherOp
	identity := gop.Identity()
	for i := range out.Data {
		out.Data[i] = identity
	}
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		u, v := g.EdgeEndpoints(e)
		row := out.Row(int(v))
		for j := 0; j < f; j++ {
			row[j] = gop.Combine(row[j], eop.Apply(fa(e, u, v, j), fb(e, u, v, j)))
		}
	}
	// Post-pass: mean normalisation and the zero-degree convention.
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		row := out.Row(int(v))
		deg := g.InDegree(v)
		if deg == 0 {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		if gop == ops.GatherMean {
			inv := 1 / float32(deg)
			for j := range row {
				row[j] *= inv
			}
		}
	}
}

// Reference computes the operator with the canonical nested loop of Fig. 5,
// independent of any schedule. Tests compare every schedule against it.
func Reference(g *graph.Graph, op ops.OpInfo, o Operands) error {
	p, err := Compile(op, Schedule{Strategy: ThreadVertex, Group: 1, Tile: 1})
	if err != nil {
		return err
	}
	return p.Execute(g, o)
}
