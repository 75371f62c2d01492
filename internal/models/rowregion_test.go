package models

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/program"
	"repro/internal/tensor"
	"repro/internal/vec/vectest"
)

// stepsOnly is a backend that turns every row-resident region down, the way
// the reference interpreter does: programs compiled on it keep the recorded
// edge-side steps, on the wrapped backend's own kernels. It is what a region
// is compared against.
type stepsOnly struct{ core.ExecBackend }

func (b stepsOnly) Lower(p *core.Plan, g *graph.Graph, o core.Operands) (core.CompiledKernel, error) {
	if o.Interior != nil {
		return nil, core.ErrNoRowRegion
	}
	return b.ExecBackend.Lower(p, g, o)
}

// Workers keeps the wrapped pool size visible to the dense splitter.
func (b stepsOnly) Workers() int { return core.Workers(b.ExecBackend) }

// sinkGraph sends every edge into the first third of the vertices: the rest
// have no in-edges, so their softmax sums over nothing.
func sinkGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 900
	rng := rand.New(rand.NewSource(17))
	b := graph.NewBuilder(n)
	for i := 0; i < 4000; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n/3)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRowRegionBitIdenticalToSteps: GAT compiled with its edge-softmax chains
// as row-resident regions computes, bit for bit, what it computes with every
// recorded step a step — on PR (4-edge rows), AR (hub rows far over the slab
// budget), CO, a star and a graph whose last two thirds have no in-edges;
// at one, two and four workers; under the host engine, a simulator-tuned one
// and the resilient ladder; with the vector kernels and with the Go loops.
func TestRowRegionBitIdenticalToSteps(t *testing.T) {
	const inFeat, classes = 16, 5
	type fixture struct {
		name string
		g    *graph.Graph
		// big fixtures run the host engine only, once per worker count.
		big bool
	}
	// The star's one row is over a region chunk's edge budget; every other row
	// of it is empty.
	fixtures := []fixture{{"star", starGraph(t, 3000), false}, {"sinks", sinkGraph(t), false}}
	for _, ds := range []string{"CO", "PR", "AR"} {
		if raceBuild && ds != "CO" {
			continue // minutes of instrumented kernels; the small fixtures cover the paths
		}
		g, _, err := datasets.Load(ds)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{ds, g, ds != "CO"})
	}
	for _, fx := range fixtures {
		x := tensor.NewDense(fx.g.NumVertices(), inFeat)
		x.FillRandom(rand.New(rand.NewSource(5)), 1)
		run := func(t *testing.T, eng Engine) (*tensor.Dense, program.Stats) {
			t.Helper()
			cp, err := CompileModel(NewGAT(), fx.g, inFeat, classes, eng)
			if err != nil {
				t.Fatal(err)
			}
			out, err := cp.Run(x)
			if err != nil {
				t.Fatal(err)
			}
			return out.Clone(), cp.Stats()
		}
		check := func(t *testing.T) {
			want, st := run(t, NewHostEngine(stepsOnly{core.NewShardedParallelBackend(1, 1)}))
			if st.RowRegions != 0 || st.Steps != 16 {
				t.Fatalf("%s: the steps program has %d row-resident regions and %d steps, want 0 and 16", fx.name, st.RowRegions, st.Steps)
			}
			for _, workers := range []int{1, 2, 4} {
				flat := core.NewShardedParallelBackend(workers, 1)
				engines := map[string]Engine{"host": NewHostEngine(flat)}
				if !fx.big {
					engines["resilient"] = NewHostEngine(quietLadder(workers, 1))
					engines["tuned"] = &TunedEngine{Dev: gpu.V100(), Tuner: NewTunedEngine(gpu.V100()).Tuner, Compute: flat}
				}
				for name, eng := range engines {
					got, st := run(t, eng)
					if st.RowRegions != 2 || st.Steps != 8 || st.InteriorStages != 10 {
						t.Fatalf("%s %s workers=%d: %d row-resident regions, %d steps, %d interior stages; want 2, 8 and 10",
							fx.name, name, workers, st.RowRegions, st.Steps, st.InteriorStages)
					}
					if i := got.BitDiff(want); i >= 0 {
						t.Fatalf("%s %s workers=%d: logit %d of vertex %d is %v, the steps give %v",
							fx.name, name, workers, i%classes, i/classes, got.Data[i], want.Data[i])
					}
				}
			}
		}
		if fx.big {
			check(t) // the kernel sets are compared on the small fixtures
			continue
		}
		vectest.EachKernelSet(t, check)
	}
}

// TestOnlyEdgeChainsGrowRowRegions: the five models without an Edge-operand
// chain compile, node for node, step for step and arena byte for arena byte,
// to the program they compile to with that growth off; GAT is the one that
// differs, by exactly its four absorbed steps a layer.
func TestOnlyEdgeChainsGrowRowRegions(t *testing.T) {
	g := denseGraph(t, 47)
	const inFeat, classes = 16, 5
	flat := core.NewShardedParallelBackend(2, 1)
	describe := func(cp *program.CompiledProgram) string {
		var b strings.Builder
		for _, n := range cp.Program().Nodes {
			fmt.Fprintf(&b, "%s %s(%d,%d)->%d;", n.Op, n.Name, n.X, n.Y, n.Out)
		}
		st := cp.Stats()
		fmt.Fprintf(&b, " steps=%d kernels=%d arena=%d regions=%d slots=%d", st.Steps, st.GraphKernels, st.ArenaFloats, st.FusedRegions, st.BufferSlots)
		for _, s := range cp.Schedules() {
			fmt.Fprintf(&b, " %s:%s", s.Name, s.Schedule)
		}
		return b.String()
	}
	for _, m := range All() {
		with, err := CompileModel(m, g, inFeat, classes, NewHostEngine(flat))
		if err != nil {
			t.Fatal(err)
		}
		without, err := CompileModel(m, g, inFeat, classes, NewHostEngine(stepsOnly{flat}))
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() == "GAT" {
			if a, b := with.Stats(), without.Stats(); a.RowRegions != 2 || a.Steps != b.Steps-8 || a.GraphKernels != b.GraphKernels-6 {
				t.Errorf("GAT: %d regions, steps %d vs %d, graph kernels %d vs %d; want 2 regions, 8 fewer steps, 6 fewer kernels",
					a.RowRegions, a.Steps, b.Steps, a.GraphKernels, b.GraphKernels)
			}
			continue
		}
		if a, b := describe(with), describe(without); a != b || with.Stats().RowRegions != 0 || with.Stats().SlabFloats != 0 {
			t.Errorf("%s compiles differently with row-resident growth on:\n%s\n%s", m.Name(), a, b)
		}
		for _, n := range with.Rewrites() {
			if n.Pass == program.PassRowResident {
				t.Errorf("%s: provenance mentions a row-resident region: %s", m.Name(), n)
			}
		}
	}
}

// BenchmarkGATLayer times a compiled GAT forward pass on PR (the gat-attn
// workload's shape) with its edge-softmax chain as recorded steps and as one
// row-resident region per layer, on one and two workers
// (`make bench-kernels`; EXPERIMENTS.md "GAT's message path").
func BenchmarkGATLayer(b *testing.B) {
	g, _, err := datasets.Load("PR")
	if err != nil {
		b.Fatal(err)
	}
	const inFeat, classes = 32, 8
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.Fill(0.25)
	for _, workers := range []int{1, 2} {
		flat := core.NewShardedParallelBackend(workers, 1)
		for _, form := range []struct {
			name    string
			backend core.ExecBackend
		}{{"steps", stepsOnly{flat}}, {"region", flat}} {
			cp, err := CompileModel(NewGAT(), g, inFeat, classes, NewHostEngine(form.backend))
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/w%d/%dsteps", form.name, workers, cp.Stats().Steps), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := cp.Run(x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
