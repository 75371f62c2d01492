package models

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/tensor"
	"repro/internal/vec/vectest"
)

// The dense-rewrite stage on the six models: what fires where, that the
// result is the reference interpreter's within 1e-4 under every way a program
// is compiled and run, and that everything but the commutation keeps every
// bit.

// wantRewrites is what the stage does to each model on a graph large enough
// for the commutation to pay: Sage's two concat GEMMs split and take their
// relu, and its narrowing second layer aggregates behind the projection
// unless the gather is a max; GIN's five MLP GEMMs take their relu; GCN's and
// GAT's activations follow graph operators, so they are region epilogues
// already.
var wantRewrites = map[string]program.Stats{
	"GCN":   {},
	"GIN":   {DenseEpilogues: 5},
	"GAT":   {},
	"SSum":  {DenseEpilogues: 2, SplitGemms: 2, CommutedAggregates: 1},
	"SMax":  {DenseEpilogues: 2, SplitGemms: 2},
	"SMean": {DenseEpilogues: 2, SplitGemms: 2, CommutedAggregates: 1},
}

func TestDenseRewritesAcrossModels(t *testing.T) {
	g := denseGraph(t, 47)
	const inFeat, classes = 64, 7
	x := poolInput(g, inFeat)
	ref := regionEngine(false) // the reference backend: ForwardCtx interprets op by op
	defer program.SetParallelSteps(false)
	for _, m := range All() {
		want, err := ForwardCtx(context.Background(), m, g, x, classes, ref)
		if err != nil {
			t.Fatal(err)
		}
		tuned := NewTunedEngine(gpu.V100())
		tuned.Compute = core.NewShardedParallelBackend(2, 1)
		configs := []struct {
			name     string
			eng      Engine
			parallel bool
		}{
			{"host", NewHostEngine(core.NewShardedParallelBackend(2, 1)), false},
			{"tuned", tuned, false},
			{"resilient", NewHostEngine(quietLadder(2, 1)), false},
			{"shards=4", NewHostEngine(core.NewShardedParallelBackend(2, 4)), false},
			{"parallel-steps", NewHostEngine(core.NewShardedParallelBackend(2, 1)), true},
		}
		for _, c := range configs {
			program.SetParallelSteps(c.parallel)
			cp, err := CompileModel(m, g, inFeat, classes, c.eng)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), c.name, err)
			}
			st, w := cp.Stats(), wantRewrites[m.Name()]
			if st.DenseEpilogues != w.DenseEpilogues || st.SplitGemms != w.SplitGemms || st.CommutedAggregates != w.CommutedAggregates {
				t.Errorf("%s/%s: %d GEMM epilogues, %d split GEMMs, %d commuted aggregates; want %d, %d, %d", m.Name(), c.name,
					st.DenseEpilogues, st.SplitGemms, st.CommutedAggregates, w.DenseEpilogues, w.SplitGemms, w.CommutedAggregates)
			}
			if rep := cp.Verify(); !rep.OK() {
				t.Errorf("%s/%s: %v", m.Name(), c.name, rep.Diags)
			}
			got, err := cp.Run(x)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name(), c.name, err)
			}
			if !got.AllClose(want, 1e-4, 1e-4) {
				t.Errorf("%s/%s: compiled differs from the reference interpreter (max diff %g)", m.Name(), c.name, got.MaxDiff(want))
			}
			// The provenance names the commuted node and that it reassociates.
			named := false
			for _, n := range cp.Rewrites() {
				named = named || (n.Accepted && n.Pass == program.PassCommuteAggregate &&
					strings.HasSuffix(n.Node, "L2_Aggr") && n.Rule == "aggregate-commute")
			}
			if named != (w.CommutedAggregates > 0) {
				t.Errorf("%s/%s: commutation named in the provenance = %v: %v", m.Name(), c.name, named, cp.Rewrites())
			}
		}
	}
}

// TestDenseRewritesKeepEveryBit: GEMM-resident epilogues, split-weight GEMMs
// and the vector elementwise kernels give, at 1, 2 and 4 workers and under
// both kernel sets, exactly the bits of the program compiled with no rewrite
// at all (the pair-only cost model, which runs the recorded dense steps) —
// for every model whose program has no commuted aggregate: four of the six on
// a graph where the commutation pays, all six on one so small that its two
// extra launches do not.
func TestDenseRewritesKeepEveryBit(t *testing.T) {
	logits := map[string][]*tensor.Dense{} // per model, one per kernel set
	vectest.EachKernelSet(t, func(t *testing.T) {
		const inFeat, classes = 64, 7
		for _, g := range []*graph.Graph{denseGraph(t, 53), tinyGraph(t)} {
			x := poolInput(g, inFeat)
			run := func(m Model, eng Engine) (*tensor.Dense, program.Stats) {
				cp, err := CompileModel(m, g, inFeat, classes, eng)
				if err != nil {
					t.Fatalf("%s: %v", m.Name(), err)
				}
				out, err := cp.Run(x)
				if err != nil {
					t.Fatalf("%s: %v", m.Name(), err)
				}
				return out.Clone(), cp.Stats()
			}
			tiny := g.NumVertices() < 100
			for _, m := range All() {
				recorded := poolEngine(1)
				recorded.PairFusionOnly = true
				want, st := run(m, recorded)
				if st.DenseEpilogues+st.SplitGemms+st.CommutedAggregates != 0 {
					t.Fatalf("%s: the pair-only model rewrote dense steps: %+v", m.Name(), st)
				}
				if !tiny {
					logits[m.Name()] = append(logits[m.Name()], want)
				}
				for _, workers := range []int{1, 2, 4} {
					got, st := run(m, poolEngine(workers))
					w := wantRewrites[m.Name()]
					if tiny {
						w.CommutedAggregates = 0
					}
					if st.DenseEpilogues != w.DenseEpilogues || st.SplitGemms != w.SplitGemms || st.CommutedAggregates != w.CommutedAggregates {
						t.Errorf("%s |V|=%d workers=%d: rewrites %+v, want %+v", m.Name(), g.NumVertices(), workers, st, w)
					}
					switch i := got.BitDiff(want); {
					case st.CommutedAggregates > 0:
						if !got.AllClose(want, 1e-4, 1e-4) {
							t.Errorf("%s workers=%d: commuted program outside 1e-4 of the recorded one (max diff %g)", m.Name(), workers, got.MaxDiff(want))
						}
					case i >= 0:
						t.Errorf("%s |V|=%d workers=%d: epilogue and split-weight rewrites change element %d (max diff %g)",
							m.Name(), g.NumVertices(), workers, i, got.MaxDiff(want))
					}
				}
			}
		}
	})
	for name, l := range logits {
		if len(l) == 2 && l[0].BitDiff(l[1]) >= 0 {
			t.Errorf("%s: logits differ between the vector kernels and the Go loops (max diff %g)", name, l[0].MaxDiff(l[1]))
		}
	}
}

// tinyGraph is 8 vertices and 12 edges: moving Sage's second-layer aggregate
// behind its projection saves under 32 KiB here, less than the two launches
// it adds, so the cost model leaves it.
func tinyGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(8)
	for i := int32(0); i < 12; i++ {
		b.AddEdge(i%8, (3*i+1)%8)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
