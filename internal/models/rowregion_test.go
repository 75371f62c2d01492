package models

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/graph"
	"repro/internal/tensor"
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
