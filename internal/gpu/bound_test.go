package gpu_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/schedule"
)

// boundOp is one of Table 9's profiled operator shapes; feat 0 stands for
// the graph's input feature width.
type boundOp struct {
	op        ops.OpInfo
	feat      int
	widthOneB bool
}

// table9Shapes are the distinct (operator, width) pairs of Table 9
// (GIN_L2_Aggr and GIN_L5_Aggr share one).
var table9Shapes = []boundOp{
	{ops.UAddV, 8, false},
	{ops.WeightedAggrSum, 64, true},
	{ops.AggrSum, 0, false},
	{ops.AggrSum, 64, false},
	{ops.AggrMax, 0, false},
	{ops.AggrMax, 256, false},
}

// starGraph is a hub joined both ways to every other vertex: one row holds
// half the edges, the skew that makes vertex-parallel blocks lopsided.
func starGraph(t *testing.T, leaves int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(leaves + 1)
	for v := int32(1); v <= int32(leaves); v++ {
		b.AddEdge(v, 0)
		b.AddEdge(0, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLowerBoundAdmissible: LowerBound never exceeds the simulated cycles.
// Every schedule of the full space (over-grouped and over-tiled ones
// included) is checked on Table 9's shapes over a community graph, a regular
// one and a star, against the V100 and the A100 at the default trace sample
// and at 96 and 24 sampled blocks. Each schedule of a (graph, shape) case
// meets one (device, fidelity) pair, the pairs rotating with the schedule and
// the case, so every pair sees a sixth of every space at a sixth of the
// cross product's cost (≈ 100 s on 2 CPUs).
func TestLowerBoundAdmissible(t *testing.T) {
	if testing.Short() {
		t.Skip("a sequential property of the simulator; make race's -short run is for the concurrent searches")
	}
	type graphCase struct {
		name      string
		g         *graph.Graph
		inputFeat int
	}
	var graphs []graphCase
	for _, abbr := range []string{"CO", "PR"} {
		g, spec, err := datasets.Load(abbr)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, graphCase{abbr, g, spec.Feat})
	}
	graphs = append(graphs, graphCase{"star", starGraph(t, 4000), 128})
	type pair struct {
		d    *gpu.Device
		fid  string
		opts []gpu.Option
	}
	var pairs []pair
	for _, d := range []*gpu.Device{gpu.V100(), gpu.A100()} {
		pairs = append(pairs,
			pair{d, "default", nil},
			pair{d, "96", []gpu.Option{gpu.WithMaxSampledBlocks(96)}},
			pair{d, "24", []gpu.Option{gpu.WithMaxSampledBlocks(24)}})
	}

	type job struct {
		name string
		k    gpu.Kernel
		pair
	}
	var jobs []job
	space := schedule.Space()
	cases := 0
	for _, gc := range graphs {
		for _, shape := range table9Shapes {
			cases++
			feat := shape.feat
			if feat == 0 {
				feat = gc.inputFeat
			}
			feat, aCols, bCols := core.OperandWidths(shape.op, feat, shape.widthOneB)
			for i, s := range space {
				p, err := core.Compile(shape.op, s)
				if err != nil {
					t.Fatal(err)
				}
				for n, pr := range pairs {
					if n != (i+cases)%len(pairs) {
						continue
					}
					jobs = append(jobs, job{
						name: fmt.Sprintf("%s/%s/%d/%s/%v at %s fidelity", gc.name, shape.op.Name, feat, pr.d.Name, s, pr.fid),
						k:    p.Kernel(gc.g, feat, aCols, bCols, pr.d),
						pair: pr,
					})
				}
			}
		}
	}
	var mu sync.Mutex
	failures := 0
	var wg sync.WaitGroup
	next := make(chan job)
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				bound := gpu.LowerBound(j.d, j.k)
				if m := gpu.Simulate(j.d, j.k, j.opts...); bound > m.Cycles {
					mu.Lock()
					if failures++; failures <= 10 {
						t.Errorf("%s: bound %v > simulated %v cycles", j.name, bound, m.Cycles)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
}
