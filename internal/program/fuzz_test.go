package program

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// The rewrite stage meets programs nobody wrote: a byte string drives a small
// random-IR generator over Builder, and every program it records must
// compile with the verifier silent, compute what the recorded program
// computes — every row in a full pass, and a few picked rows bit-identically
// in a row-subset run — and, with the dense-rewrite corruption point armed,
// fail with a typed verifier error or not at all, never a panic.

// fuzzWidths are the feature widths the generator draws from: a scalar, less
// than a vector, whole vectors, a vector and a tail.
var fuzzWidths = []int{1, 3, 8, 12, 16, 24}

// fuzzValue is a vertex-rows value the generator may read again, with a
// bound on the magnitude of its elements: the generator keeps magnitudes
// near 1 so that the 1e-4 comparison means something and exp cannot
// overflow.
type fuzzValue struct {
	id    ValueID
	cols  int
	bound float64
}

// fuzzMaxBound is the largest element magnitude the generator lets a value
// reach; an instruction that would exceed it is skipped.
const fuzzMaxBound = 64

// fuzzProgram records the program data spells: byte 0 picks the input width,
// then three bytes per instruction — kind, and two operand/width selectors —
// up to 16 instructions; the last byte picks the output. maxDeg is the
// graph's largest in-degree, which bounds a sum gather. A kind byte of 225 or
// more (what the nine kinds leave of a byte) spells an attention chain
// (fuzzAttention).
func fuzzProgram(data []byte, maxDeg int) (*Program, int, error) {
	if len(data) < 4 {
		return nil, 0, errors.New("too short")
	}
	h := fnv.New64a()
	h.Write(data) // hash.Hash.Write never fails
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	inCols := fuzzWidths[int(data[0])%len(fuzzWidths)]
	b := NewBuilder("fuzz", inCols, 0)
	vs := []fuzzValue{{b.Input(inCols), inCols, 1}}
	pick := func(sel byte) fuzzValue { return vs[int(sel)%len(vs)] }
	push := func(id ValueID, cols int, bound float64) { vs = append(vs, fuzzValue{id, cols, bound}) }
	body := data[1 : len(data)-1]
	for i := 0; i+3 <= len(body) && i < 3*16; i += 3 {
		kind, a, c := body[i]%9, body[i+1], body[i+2]
		name := fmt.Sprintf("n%d", i/3)
		x := pick(a)
		if body[i] >= 225 {
			vs = fuzzAttention(b, name, vs, x, pick(a+1), c, maxDeg)
			continue
		}
		switch kind {
		case 0: // gemm to a drawn width, widening or narrowing
			n := fuzzWidths[int(c)%len(fuzzWidths)]
			w := tensor.NewDense(x.cols, n)
			scale := 1 / math.Sqrt(float64(x.cols))
			if bound := x.bound * float64(x.cols) * scale; bound <= fuzzMaxBound {
				w.FillRandom(rng, float32(scale))
				push(b.GEMM(name, x.id, b.Const(name+"_w", w, VertexRows), n), n, bound)
			}
		case 1: // concat
			if y := pick(c); x.cols+y.cols <= 64 {
				push(b.Concat(name, x.id, y.id), x.cols+y.cols, math.Max(x.bound, y.bound))
			}
		case 2:
			push(b.Unary(name, x.id, []Unary{{Kind: UnaryReLU}}), x.cols, x.bound)
		case 3: // leaky-relu, with exp behind it on a small value
			chain, bound := []Unary{{Kind: UnaryLeakyReLU, Alpha: 0.2}}, x.bound
			if c&1 == 1 && bound <= 3 {
				chain, bound = append(chain, Unary{Kind: UnaryExp}), math.Exp(bound)
			}
			push(b.Unary(name, x.id, chain), x.cols, bound)
		case 4: // add_scaled with the first same-width value from the selector on
			scale := []float32{1, 0.5, -1.5}[int(c)%3]
			for j := range vs {
				y := vs[(int(c)+j)%len(vs)]
				if bound := x.bound + math.Abs(float64(scale))*y.bound; y.cols == x.cols && bound <= fuzzMaxBound {
					push(b.AddScaled(name, x.id, y.id, scale), x.cols, bound)
					break
				}
			}
		case 5:
			push(b.HeadMerge(name, x.id), 1, x.bound)
		default: // sum, mean or max gather, recorded decomposed as the models do
			op := []ops.GatherOp{ops.GatherSum, ops.GatherMean, ops.GatherMax}[kind-6]
			bound := x.bound
			if op == ops.GatherSum {
				bound *= float64(maxDeg)
			}
			if bound <= fuzzMaxBound {
				push(gather(b, name, op, x.id, x.cols), x.cols, bound)
			}
		}
	}
	b.SetOutput(pick(data[len(data)-1]).id)
	p, err := b.Finish()
	return p, inCols, err
}

// fuzzAttention records an edge-side chain under a weighted aggregation — the
// shape a row-resident region grows over — and the ways one must not grow:
// per-edge scores u_add_v(x, x), a leaky-relu (and exp, when small enough)
// over them, then by sel either nothing, an edge softmax (sum per destination,
// e_div_v), the same sum read back through a Src_V operand (another row's: not
// destination-local), or a softmax whose denominators are also a vertex value
// later instructions, or the program's output, may read (an outside reader);
// a head merge when sel says so or the widths demand it; and z aggregated
// under the result, recorded decomposed as the models do. It returns vs with
// the values it made readable.
func fuzzAttention(b *Builder, name string, vs []fuzzValue, x, z fuzzValue, sel byte, maxDeg int) []fuzzValue {
	bound := 2 * x.bound
	chain := []Unary{{Kind: UnaryLeakyReLU, Alpha: 0.2}}
	positive := sel&1 == 1 && bound <= 3
	if positive {
		chain, bound = append(chain, Unary{Kind: UnaryExp}), math.Exp(bound)
	}
	variant := (sel >> 1) & 3
	if !positive && variant != 1 {
		variant = 1 // a softmax divides by a sum of positive terms only
	}
	switch variant {
	case 0, 3:
		bound = 1
	case 2:
		bound *= bound * float64(maxDeg)
	}
	if z.bound*bound*float64(maxDeg) > fuzzMaxBound {
		return vs
	}
	edge := func(eop ops.EdgeOp, a, bk tensor.Kind) ops.OpInfo {
		return ops.OpInfo{EdgeOp: eop, GatherOp: ops.GatherCopyRHS, AKind: a, BKind: bk, CKind: tensor.EdgeK}
	}
	sum := ops.OpInfo{EdgeOp: ops.CopyRHS, GatherOp: ops.GatherSum, AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV}
	cols := x.cols
	scores := b.GraphOp(name+"_scores", edge(ops.EdgeAdd, tensor.SrcV, tensor.DstV), x.id, x.id, cols)
	scores = b.Unary(name+"_act", scores, chain)
	if variant != 1 {
		denom := b.GraphOp(name+"_denom", sum, NoValue, scores, cols)
		switch variant {
		case 2:
			scores = b.GraphOp(name+"_times_u", edge(ops.EdgeMul, tensor.EdgeK, tensor.SrcV), scores, denom, cols)
		default:
			scores = b.GraphOp(name+"_div", edge(ops.EdgeDiv, tensor.EdgeK, tensor.DstV), scores, denom, cols)
			if variant == 3 {
				vs = append(vs, fuzzValue{denom, cols, math.Exp(2*x.bound) * float64(maxDeg)})
			}
		}
	}
	if sel&8 != 0 || (cols != 1 && cols != z.cols) {
		scores, cols = b.HeadMerge(name+"_merge", scores), 1
	}
	mat := b.GraphOp(name+"_materialize", edge(ops.EdgeMul, tensor.SrcV, tensor.EdgeK), z.id, scores, z.cols)
	out := b.GraphOp(name+"_scatter", sum, NoValue, mat, z.cols)
	return append(vs, fuzzValue{out, z.cols, z.bound * bound * float64(maxDeg)})
}

// fuzzSeeds spell the shapes the rewrites are about, by hand.
var fuzzSeeds = [][]byte{
	// Sage layer, narrowing, the relu's value the output: mean(v0); concat(v0,
	// v1); gemm to 8; relu.
	{5, 7, 0, 0, 1, 0, 1, 0, 2, 2, 2, 3, 0, 4},
	// The same with a max gather, and the split GEMM's own value the output.
	{5, 8, 0, 0, 1, 0, 1, 0, 2, 2, 3},
	// Widening: 3 -> 24.
	{1, 7, 0, 0, 1, 0, 1, 0, 2, 5, 2, 3, 0, 4},
	// Leaky-relu+exp between aggregate and concat.
	{4, 7, 0, 0, 3, 1, 1, 1, 0, 2, 0, 3, 2, 2, 4, 0, 5},
	// The aggregate read twice, by the concat and by an add_scaled that joins
	// the rectified GEMM in the output.
	{4, 6, 0, 0, 1, 0, 1, 0, 2, 1, 4, 1, 0, 2, 3, 0, 1, 4, 5, 6},
	// Two layers, the second reading the first's rectified GEMM (GIN- and
	// Sage-like chains), a head-merge on the way out.
	{3, 0, 0, 4, 2, 1, 0, 7, 2, 0, 1, 2, 3, 0, 4, 2, 2, 5, 0, 5, 6, 0, 7},
	// GEMM -> relu -> relu -> add_scaled of two GEMMs: epilogue chains on both
	// producer kinds.
	{2, 0, 0, 2, 2, 1, 0, 2, 2, 0, 0, 0, 2, 4, 3, 4, 2, 5, 0, 6},
	// GAT's layer: two GEMMs to 8 off the input, the attention chain with exp,
	// softmax and head merge over the second under the first, a leaky-relu.
	{4, 0, 0, 2, 0, 0, 2, 225, 2, 9, 3, 3, 0, 4},
	// The same chain three more times, each standing in a region's way: no
	// softmax, the sum read back as Src_V, the denominators the output.
	{4, 0, 0, 2, 0, 0, 2, 225, 2, 11, 3, 3, 0, 4},
	{1, 0, 0, 2, 0, 0, 2, 240, 2, 5, 3, 3, 0, 4},
	{4, 0, 0, 2, 0, 0, 2, 255, 2, 7, 3},
}

func FuzzCompileEquivalence(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	g := testGraph(f, 61, 300, 3000) // large enough that a commutation pays for its two extra launches
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		maxDeg = max(maxDeg, int(g.InDegree(int32(v))))
	}
	backends := []core.ExecBackend{core.ReferenceBackend(), core.NewParallelBackend(2)}
	sched := stubScheduler{sched: core.DefaultSchedule, fuse: true}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, inCols, err := fuzzProgram(data, maxDeg)
		if err != nil {
			t.Skip(err)
		}
		x := tensor.NewDense(g.NumVertices(), inCols)
		x.FillRandom(rand.New(rand.NewSource(int64(len(data)))), 1)
		want := interpret(t, p, g, x)
		for _, backend := range backends {
			fuzzCheck(t, p, g, x, want, sched, backend)
		}

		// The same program with the rewrite stage's records corrupted: the
		// verifier may have nothing to object to (no rewrite of that kind
		// fired), and otherwise must object in its own type.
		defer faultinject.Reset()
		faultinject.Arm(faultinject.CorruptDenseRewrite, faultinject.Spec{Every: 1, Seed: uint64(data[0]) % 3})
		var ve *analysis.VerifyError
		if _, err := Compile(p, g, sched, backends[0]); err != nil && !errors.As(err, &ve) {
			t.Fatalf("corrupted compile failed outside the verifier: %v", err)
		}
	})
}

// fuzzCheck compiles p and holds the result to the recorded program.
func fuzzCheck(t *testing.T, p *Program, g *graph.Graph, x, want *tensor.Dense, s Scheduler, backend core.ExecBackend) {
	t.Helper()
	cp, err := Compile(p, g, s, backend)
	if err != nil {
		// The generator records only legal programs: a diagnostic here is a
		// rewrite, or a rule, gone wrong.
		t.Fatalf("%s: compile: %v", backend.Name(), err)
	}
	if rep := cp.Verify(); !rep.OK() {
		t.Fatalf("%s: verify: %v", backend.Name(), rep.Diags)
	}
	got, err := cp.Run(x)
	if err != nil {
		t.Fatalf("%s: run: %v", backend.Name(), err)
	}
	if !got.AllClose(want, 1e-4, 1e-4) {
		t.Fatalf("%s: compiled differs from the recorded program by %g\nrewrites: %v", backend.Name(), got.MaxDiff(want), cp.Rewrites())
	}

	// The row-set arm: a handful of rows the hash picks, through the rule and
	// with the crossover off, over a poisoned arena — the requested rows are
	// the full pass's bits whether the program runs row sets or declines.
	full := got.Clone()
	rng := rand.New(rand.NewSource(int64(x.Cols)*7919 + int64(len(p.Nodes))))
	rows := make([]int32, 1+rng.Intn(6))
	for i := range rows {
		rows[i] = int32(rng.Intn(g.NumVertices()))
	}
	for _, share := range []float64{rowFullShare, math.Inf(1)} {
		cp.PoisonArena()
		got, info, err := cp.runRows(context.Background(), x, rows, share)
		if err != nil {
			t.Fatalf("%s: RunRows(%v): %v", backend.Name(), rows, err)
		}
		if ok, _ := cp.RowsCapable(); ok != info.Rows && math.IsInf(share, 1) {
			t.Fatalf("%s: rows-capable=%v but the forced run answered %+v", backend.Name(), ok, info)
		}
		for _, r := range rows {
			a, b := got.RowRange(int(r), int(r)+1), full.RowRange(int(r), int(r)+1)
			if d := a.BitDiff(&b); d >= 0 {
				t.Fatalf("%s: RunRows(%v) %s: row %d differs from the full pass at column %d\nrewrites: %v", backend.Name(), rows, info.Mode(), r, d, cp.Rewrites())
			}
		}
	}
}
