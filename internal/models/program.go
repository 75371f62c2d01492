package models

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/program"
	"repro/internal/tensor"
)

// The recorder: the second stage implementation. Where exec interprets a
// model's pipeline op by op, the recorder replays the same run method and
// emits a program.Program — the whole-model IR that Compile then fuses,
// schedules and buffer-plans once per (graph, engine, backend). Weights and
// edge scalars are materialised here with the same seed and draw order as
// exec's functional mode, so a compiled program computes bit-compatible
// results to the interpreter it is tested against.

type recorder struct {
	g   *graph.Graph
	b   *program.Builder
	rng *rand.Rand
}

// fused implements stage: the recorder always records the decomposed
// materialise+scatter form; program.Compile re-fuses it when the engine
// fuses. Recording once per model keeps the IR engine-independent.
func (r *recorder) fused() bool { return false }

// edgeScalar implements stage by recording the scalars as a constant.
func (r *recorder) edgeScalar() vt {
	d := edgeScalarData(r.g.NumEdges(), r.rng)
	v := r.b.Const("edge_weights", d, program.EdgeRows)
	return vt{kind: tensor.EdgeK, cols: 1, val: v}
}

// gemm implements stage, materialising the weight in exec's draw order.
func (r *recorder) gemm(name string, t vt, n int) vt {
	w := tensor.NewDense(t.cols, n)
	w.FillRandom(r.rng, 0.5)
	wv := r.b.Const(name+"_w", w, program.VertexRows)
	return vt{kind: t.kind, cols: n, val: r.b.GEMM(name, t.val, wv, n)}
}

// unary implements stage.
func (r *recorder) unary(name string, t vt, reads int, chain []program.Unary) vt {
	return vt{kind: t.kind, cols: t.cols, val: r.b.Unary(name, t.val, chain)}
}

// addScaled implements stage.
func (r *recorder) addScaled(name string, t, other vt, scale float32) vt {
	return vt{kind: t.kind, cols: t.cols, val: r.b.AddScaled(name, t.val, other.val, scale)}
}

// headMerge implements stage.
func (r *recorder) headMerge(name string, t vt) vt {
	return vt{kind: t.kind, cols: 1, val: r.b.HeadMerge(name, t.val)}
}

// concat implements stage.
func (r *recorder) concat(name string, a, b vt) vt {
	return vt{kind: a.kind, cols: a.cols + b.cols, val: r.b.Concat(name, a.val, b.val)}
}

// graphOp implements stage.
func (r *recorder) graphOp(name string, op ops.OpInfo, a, b vt, outCols int) vt {
	av, bv := program.NoValue, program.NoValue
	if op.AKind != tensor.Null {
		av = a.val
	}
	if op.BKind != tensor.Null {
		bv = b.val
	}
	return vt{kind: op.CKind, cols: outCols, val: r.b.GraphOp(name, op, av, bv, outCols)}
}

// Record replays m's forward pass through a recorder and returns the
// whole-model program for a graph with inCols input features and `classes`
// output classes. The program embeds deterministic weights identical to the
// ones ForwardCtx draws.
func Record(m Model, g *graph.Graph, inCols, classes int) (*program.Program, error) {
	b := program.NewBuilder(m.Name(), inCols, classes)
	r := &recorder{g: g, b: b, rng: rand.New(rand.NewSource(1234))}
	in := b.Input(inCols)
	h := m.run(r, vt{kind: tensor.SrcV, cols: inCols, val: in}, classes)
	b.SetOutput(h.val)
	return b.Finish()
}

// CompileModel records m and compiles the program for (g, eng): fusion
// follows eng.Fused(), every graph operator's schedule is resolved through
// eng once, and kernels run on the engine's compute backend. The returned
// program serves repeated Run calls with zero steady-state allocations.
func CompileModel(m Model, g *graph.Graph, inCols, classes int, eng Engine) (*program.CompiledProgram, error) {
	p, err := Record(m, g, inCols, classes)
	if err != nil {
		return nil, err
	}
	return program.Compile(p, g, eng, computeBackend(eng))
}
