package program

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

// interpret is the recorded-program oracle: it evaluates p node by node,
// exactly as recorded — no fusion, no rewrite, no arena — with the scalar
// loops the operators are specified as and the reference graph kernels.
func interpret(t testing.TB, p *Program, g *graph.Graph, x *tensor.Dense) *tensor.Dense {
	t.Helper()
	vals := make([]*tensor.Dense, len(p.Values))
	for i := range p.Nodes {
		n := &p.Nodes[i]
		switch n.Op {
		case OpInput:
			vals[n.Out] = x
		case OpConst:
			vals[n.Out] = n.Const
		case OpGEMM:
			vals[n.Out] = tensor.MatMul(vals[n.X], vals[n.Y])
		case OpUnary:
			d := vals[n.X].Clone()
			for _, u := range n.Chain {
				for j, v := range d.Data {
					switch {
					case u.Kind == UnaryExp:
						d.Data[j] = float32(math.Exp(float64(v)))
					case v >= 0 || v != v:
					case u.Kind == UnaryReLU:
						d.Data[j] = 0
					default:
						d.Data[j] = u.Alpha * v
					}
				}
			}
			vals[n.Out] = d
		case OpAddScaled:
			d := vals[n.X].Clone()
			for j, v := range vals[n.Y].Data {
				d.Data[j] += n.Scale * v
			}
			vals[n.Out] = d
		case OpHeadMerge:
			d := tensor.NewDense(vals[n.X].Rows, 1)
			tensor.RowMeanInto(d, vals[n.X])
			vals[n.Out] = d
		case OpConcat:
			vals[n.Out] = tensor.Concat(vals[n.X], vals[n.Y])
		case OpGraph:
			out := tensor.NewDense(p.RowsOf(n.Out, g.NumVertices(), g.NumEdges()), p.Values[n.Out].Cols)
			o := core.Operands{A: tensor.NullTensor, B: tensor.NullTensor, C: tensor.Typed{Kind: n.GOp.CKind, T: out}}
			if n.GOp.AKind != tensor.Null {
				o.A = tensor.Typed{Kind: n.GOp.AKind, T: vals[n.X]}
			}
			if n.GOp.BKind != tensor.Null {
				o.B = tensor.Typed{Kind: n.GOp.BKind, T: vals[n.Y]}
			}
			if _, err := core.RunWith(core.ReferenceBackend(), g, n.GOp, o, core.DefaultSchedule, gpu.V100()); err != nil {
				t.Fatalf("interpret %s: %v", n.Name, err)
			}
			vals[n.Out] = out
		}
	}
	return vals[p.Output]
}

// gather records the decomposed unweighted aggregation the model recorder
// emits: copy_u materialised per edge, then reduced per destination.
func gather(b *Builder, name string, op ops.GatherOp, h ValueID, cols int) ValueID {
	mat := b.GraphOp(name+"_materialize", ops.OpInfo{
		EdgeOp: ops.CopyLHS, GatherOp: ops.GatherCopyRHS,
		AKind: tensor.SrcV, BKind: tensor.Null, CKind: tensor.EdgeK,
	}, h, NoValue, cols)
	return b.GraphOp(name+"_scatter", ops.OpInfo{
		EdgeOp: ops.CopyRHS, GatherOp: op,
		AKind: tensor.Null, BKind: tensor.EdgeK, CKind: tensor.DstV,
	}, NoValue, mat, cols)
}

// sageLayer is one GraphSage layer over the input h (width in): relu(concat(h,
// aggr(h)) @ W), W of width out, with the two ways a recorded layer can stand
// in the commutation's way.
type sageLayer struct {
	op      ops.GatherOp
	in, out int
	between []Unary // a chain between aggregate and concat
	reread  bool    // the aggregate is also added into the result
}

func (l sageLayer) record(t testing.TB, rng *rand.Rand) *Program {
	t.Helper()
	b := NewBuilder("sage-toy", l.in, l.out)
	h := b.Input(l.in)
	s := gather(b, "aggr", l.op, h, l.in)
	joined := s
	if len(l.between) > 0 {
		joined = b.Unary("between", s, l.between)
	}
	cat := b.Concat("concat", h, joined)
	w := tensor.NewDense(2*l.in, l.out)
	w.FillRandom(rng, 0.5)
	z := b.GEMM("w_concat", cat, b.Const("w", w, VertexRows), l.out)
	r := b.Unary("relu", z, []Unary{{Kind: UnaryReLU}})
	if l.reread {
		// A second reader of the aggregate: its head-merge joins the output.
		m := b.HeadMerge("aggr_mean", s)
		one := tensor.NewDense(1, l.out)
		one.Fill(1)
		r = b.AddScaled("reread", r, b.GEMM("spread", m, b.Const("ones", one, VertexRows), l.out), 0.5)
	}
	b.SetOutput(r)
	p, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func notesFor(notes []RewriteNote, pass string) []RewriteNote {
	var out []RewriteNote
	for _, n := range notes {
		if n.Pass == pass {
			out = append(out, n)
		}
	}
	return out
}

// TestDenseRewriteDecisions: on a Sage-shaped layer the three passes fire
// when they may and each rejection is the one the shape calls for — a max
// gather, a leaky-relu between aggregate and GEMM, an aggregate read twice,
// a widening weight — and, whatever was decided, the compiled program
// verifies clean and computes the recorded program within 1e-4 (to the bit
// where only the epilogue and split-weight passes fired), on the reference
// and the parallel backend.
func TestDenseRewriteDecisions(t *testing.T) {
	g := testGraph(t, 51, 90, 700)
	cases := []struct {
		name    string
		layer   sageLayer
		commute string // "" = accepted, else the rejection
		stats   Stats  // the three dense counters
	}{
		{"mean, narrowing", sageLayer{op: ops.GatherMean, in: 24, out: 8}, "",
			Stats{DenseEpilogues: 1, SplitGemms: 1, CommutedAggregates: 1}},
		{"sum, narrowing", sageLayer{op: ops.GatherSum, in: 24, out: 8}, "",
			Stats{DenseEpilogues: 1, SplitGemms: 1, CommutedAggregates: 1}},
		{"max gather", sageLayer{op: ops.GatherMax, in: 24, out: 8}, rejectNotLinear,
			Stats{DenseEpilogues: 1, SplitGemms: 1}},
		{"leaky-relu between", sageLayer{op: ops.GatherMean, in: 24, out: 8, between: []Unary{{Kind: UnaryLeakyReLU, Alpha: 0.2}}}, rejectChainBetween,
			Stats{DenseEpilogues: 1, SplitGemms: 1}},
		{"aggregate read twice", sageLayer{op: ops.GatherMean, in: 24, out: 8, reread: true}, rejectMultiConsumer,
			Stats{DenseEpilogues: 1, SplitGemms: 1}},
		{"widening", sageLayer{op: ops.GatherMean, in: 8, out: 24}, rejectNotNarrowing,
			Stats{DenseEpilogues: 1, SplitGemms: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			p := tc.layer.record(t, rng)
			x := tensor.NewDense(g.NumVertices(), tc.layer.in)
			x.FillRandom(rng, 1)
			want := interpret(t, p, g, x)
			for _, backend := range []core.ExecBackend{core.ReferenceBackend(), core.NewParallelBackend(2)} {
				cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, backend)
				if err != nil {
					t.Fatal(err)
				}
				if rep := cp.Verify(); !rep.OK() {
					t.Fatalf("%s: legal rewrite reports violations: %v", backend.Name(), rep.Diags)
				}
				st := cp.Stats()
				if st.DenseEpilogues != tc.stats.DenseEpilogues || st.SplitGemms != tc.stats.SplitGemms || st.CommutedAggregates != tc.stats.CommutedAggregates {
					t.Errorf("%s: %d epilogues, %d split GEMMs, %d commuted aggregates; want %d, %d, %d", backend.Name(),
						st.DenseEpilogues, st.SplitGemms, st.CommutedAggregates,
						tc.stats.DenseEpilogues, tc.stats.SplitGemms, tc.stats.CommutedAggregates)
				}
				cn := notesFor(cp.Rewrites(), PassCommuteAggregate)
				if len(cn) != 1 || cn[0].Accepted != (tc.commute == "") || (tc.commute != "" && cn[0].Rule != tc.commute) {
					t.Errorf("%s: commutation notes %v, want one, rejected for %q", backend.Name(), cn, tc.commute)
				}
				for _, sm := range cp.StepModes() {
					if sm.Op == "concat" || (sm.Op == "unary" && sm.Name == "relu") {
						t.Errorf("%s: step %s %s survived the rewrite", backend.Name(), sm.Op, sm.Name)
					}
				}
				got, err := cp.Run(x)
				if err != nil {
					t.Fatal(err)
				}
				if !got.AllClose(want, 1e-4, 1e-4) {
					t.Errorf("%s: compiled differs from the recorded program (max diff %g)", backend.Name(), got.MaxDiff(want))
				}
				if tc.commute != "" && got.BitDiff(want) >= 0 {
					t.Errorf("%s: epilogue and split-weight alone must be bit-identical to the recorded program (max diff %g)",
						backend.Name(), got.MaxDiff(want))
				}
			}
		})
	}
}

// TestDenseRewriteOffUnderPairOnly: the pair-only cost model and a
// non-fusing scheduler leave the dense side as recorded.
func TestDenseRewriteOffUnderPairOnly(t *testing.T) {
	g := testGraph(t, 52, 60, 400)
	p := sageLayer{op: ops.GatherMean, in: 16, out: 4}.record(t, rand.New(rand.NewSource(3)))
	if rp, notes := RewriteDense(p, g.NumVertices(), g.NumEdges(), PairOnlyCostModel()); rp != p || notes != nil {
		t.Errorf("pair-only model rewrote the program: %v", notes)
	}
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: false}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	if st := cp.Stats(); st.DenseEpilogues+st.SplitGemms+st.CommutedAggregates != 0 || cp.Rewrites() != nil {
		t.Errorf("non-fusing scheduler got dense rewrites: %+v", cp.Rewrites())
	}
}

// TestDenseCorruptionFiresExactlyItsRule: each seed of the dense-rewrite
// corruption point makes Compile fail with diagnostics of its one rule.
func TestDenseCorruptionFiresExactlyItsRule(t *testing.T) {
	g := testGraph(t, 53, 90, 700) // large enough that the commutation pays for its two extra launches
	p := sageLayer{op: ops.GatherMean, in: 24, out: 8}.record(t, rand.New(rand.NewSource(5)))
	for seed, rule := range []string{analysis.RuleDenseEpilogue, analysis.RuleSplitGemm, analysis.RuleAggregateCommute} {
		t.Run(rule, func(t *testing.T) {
			t.Cleanup(faultinject.Reset)
			faultinject.Arm(faultinject.CorruptDenseRewrite, faultinject.Spec{Every: 1, Seed: uint64(seed)})
			_, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
			var ve *analysis.VerifyError
			if !errors.As(err, &ve) {
				t.Fatalf("want *analysis.VerifyError, got %v", err)
			}
			for _, d := range ve.Diags {
				if d.Rule != rule {
					t.Errorf("seed %d also tripped %s", seed, d)
				}
			}
			if faultinject.Fires(faultinject.CorruptDenseRewrite) == 0 {
				t.Fatal("the corruption point never fired")
			}
		})
	}
}

// TestSplitGemmSecondPairIsAnEffect: the wave analyzer sees a split GEMM's
// second operand — a step that overwrote it could not share its wave — and
// the buffer plan keeps it live until the GEMM has read it.
func TestSplitGemmSecondPairIsAnEffect(t *testing.T) {
	g := testGraph(t, 54, 60, 400)
	p := sageLayer{op: ops.GatherMax, in: 16, out: 4}.record(t, rand.New(rand.NewSource(9)))
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	for i := range cp.steps {
		st := &cp.steps[i]
		if st.pb2 == nil {
			continue
		}
		iv, ok := cp.valueInterval(st.vx2)
		if !ok {
			t.Fatal("second operand has no arena interval")
		}
		eff := cp.stepEffects()[i]
		found := false
		for _, r := range eff.Reads {
			found = found || r == iv
		}
		if !found {
			t.Errorf("step %s reads %+v, missing its second operand %+v", st.name, eff.Reads, iv)
		}
		if last := cp.plan.LastUse[st.vx2]; last < 0 || cp.prog.Nodes[last].Out != st.vout {
			t.Errorf("second operand's last use is node %d, want the split GEMM", last)
		}
		return
	}
	t.Fatal("no split GEMM step in the compiled program")
}

// TestRewriteNoteNamesTheReassociation: the provenance line of an accepted
// commutation names the node, the rule and both byte counts.
func TestRewriteNoteNamesTheReassociation(t *testing.T) {
	g := testGraph(t, 55, 90, 700)
	p := sageLayer{op: ops.GatherMean, in: 24, out: 8}.record(t, rand.New(rand.NewSource(11)))
	cp, err := Compile(p, g, stubScheduler{sched: core.DefaultSchedule, fuse: true}, core.ReferenceBackend())
	if err != nil {
		t.Fatal(err)
	}
	cn := notesFor(cp.Rewrites(), PassCommuteAggregate)
	if len(cn) != 1 {
		t.Fatalf("commutation notes: %v", cn)
	}
	line := cn[0].String()
	for _, want := range []string{"commute-aggregate aggr", "aggregate-commute", "KiB"} {
		if !strings.Contains(line, want) {
			t.Errorf("provenance line %q lacks %q", line, want)
		}
	}
	if cn[0].BytesAfter >= cn[0].BytesBefore {
		t.Errorf("accepted a commutation that streams %d bytes against %d", cn[0].BytesAfter, cn[0].BytesBefore)
	}
}

// TestVerifierRejectsIllegalCommutation: the aggregate-commute rule decides
// legality on its own, not by trusting the pass — a legal commutation's
// compiled program, edited into each shape the pass must decline, is rejected
// under that rule.
func TestVerifierRejectsIllegalCommutation(t *testing.T) {
	g := testGraph(t, 56, 90, 700)
	p := sageLayer{op: ops.GatherMean, in: 24, out: 8}.record(t, rand.New(rand.NewSource(13)))
	numV, numE := g.NumVertices(), g.NumEdges()
	fused, _ := FuseRegions(p, numV, numE, DefaultCostModel())
	rewritten, notes := RewriteDense(fused, numV, numE, DefaultCostModel())
	if cn := notesFor(notes, PassCommuteAggregate); len(cn) != 1 || !cn[0].Accepted {
		t.Fatalf("fixture did not commute: %v", notes)
	}
	rewritten, _ = EliminateDead(rewritten)
	if err := verifyCompilation(p, rewritten, nil, numV, numE); err != nil {
		t.Fatalf("legal commutation rejected: %v", err)
	}
	commuted := func(post *Program) *Node {
		for i := range post.Nodes {
			if d := post.Nodes[i].Dense; d != nil && d.CommutedFrom != NoValue {
				return &post.Nodes[i]
			}
		}
		t.Fatal("no commuted aggregate in the compiled program")
		return nil
	}
	for name, edit := range map[string]func(pre, post *Program){
		"max gather": func(pre, post *Program) {
			// Recorded and compiled alike, so only the commutation is at fault.
			commuted(post).GOp.GatherOp = ops.GatherMax
			for i := range pre.Nodes {
				if pre.Nodes[i].GOp.GatherOp == ops.GatherMean {
					pre.Nodes[i].GOp.GatherOp = ops.GatherMax
				}
			}
		},
		"leaky-relu between aggregate and GEMM": func(pre, post *Program) {
			commuted(post).Region = &RegionInfo{Post: []Unary{{Kind: UnaryLeakyReLU, Alpha: 0.2}}}
		},
		"aggregate with two consumers": func(pre, post *Program) {
			phantomReader(pre, commuted(post).Dense.CommutedFrom)
		},
		"widening weight": func(pre, post *Program) {
			// The layer's result as wide as the aggregate it was to narrow.
			wide := pre.Values[commuted(post).Dense.CommutedFrom].Cols
			for i := range pre.Nodes {
				if pre.Nodes[i].Name == "w_concat" {
					pre.Values[pre.Nodes[i].Out].Cols = wide
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			pre, post := p.clone(), rewritten.clone()
			edit(pre, post)
			var ve *analysis.VerifyError
			if err := verifyCompilation(pre, post, nil, numV, numE); !errors.As(err, &ve) || !ve.HasRule(analysis.RuleAggregateCommute) {
				t.Fatalf("want an %s violation, got %v", analysis.RuleAggregateCommute, err)
			}
		})
	}
}
