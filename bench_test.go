// Package main's bench_test provides one testing.B benchmark per paper
// table/figure, plus micro-benchmarks of the core kernels. The experiment
// benchmarks run the same code as `ugrapher-bench <id>` in quick mode and
// report the experiment's wall time per iteration; run the CLI for the full
// tables. Regenerate everything with:
//
//	go test -bench=. -benchmem ./...
package main

import (
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/schedule"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// benchExperiment runs a registered experiment in quick mode.
func benchExperiment(b *testing.B, id string) {
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := bench.Options{Quick: true}
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := tab.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1Heatmap(b *testing.B)            { benchExperiment(b, "fig1") }
func BenchmarkTable2OperatorCensus(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3Datasets(b *testing.B)         { benchExperiment(b, "table3") }
func BenchmarkFig3DGLLimitations(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkTable4Representation(b *testing.B)   { benchExperiment(b, "table4") }
func BenchmarkTable6Tradeoffs(b *testing.B)        { benchExperiment(b, "table6") }
func BenchmarkFig7OptimalVaries(b *testing.B)      { benchExperiment(b, "fig7") }
func BenchmarkFig12Predictor(b *testing.B)         { benchExperiment(b, "fig12") }
func BenchmarkFig13EndToEnd(b *testing.B)          { benchExperiment(b, "fig13") }
func BenchmarkFig14PerModelSpeedup(b *testing.B)   { benchExperiment(b, "fig14") }
func BenchmarkFig15PerDatasetSpeedup(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16Metrics(b *testing.B)           { benchExperiment(b, "fig16") }
func BenchmarkFig17BasicVsTuned(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18GroupTileSweep(b *testing.B)    { benchExperiment(b, "fig18") }
func BenchmarkTable9OptimalSchedules(b *testing.B) { benchExperiment(b, "table9") }
func BenchmarkFig19Reordering(b *testing.B)        { benchExperiment(b, "fig19") }
func BenchmarkFig2Imbalance(b *testing.B)          { benchExperiment(b, "fig2") }
func BenchmarkTable8Setup(b *testing.B)            { benchExperiment(b, "table8") }
func BenchmarkAblationSpace(b *testing.B)          { benchExperiment(b, "ablation-space") }
func BenchmarkAblationSim(b *testing.B)            { benchExperiment(b, "ablation-sim") }
func BenchmarkAblationPredictor(b *testing.B)      { benchExperiment(b, "ablation-predictor") }

// --- micro-benchmarks of the library itself ---

func benchGraph(b *testing.B, n, m int) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	bb := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		bb.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, err := bb.Build()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkFunctionalExecute measures the functional executor across the
// four strategies (the kernel the examples and tests run).
func BenchmarkFunctionalExecute(b *testing.B) {
	g := benchGraph(b, 5000, 50000)
	x := tensor.NewDense(5000, 64)
	x.FillRandom(rand.New(rand.NewSource(2)), 1)
	out := tensor.NewDense(5000, 64)
	o := core.Operands{A: tensor.Src(x), B: tensor.NullTensor, C: tensor.Dst(out)}
	for _, s := range core.Strategies {
		s := s
		b.Run(s.Code(), func(b *testing.B) {
			p := core.MustCompile(ops.AggrSum, core.Schedule{Strategy: s, Group: 1, Tile: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.Execute(g, o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulate measures one simulator invocation per strategy — the
// unit of work grid search multiplies.
func BenchmarkSimulate(b *testing.B) {
	g := benchGraph(b, 20000, 200000)
	dev := gpu.V100()
	for _, s := range core.Strategies {
		s := s
		b.Run(s.Code(), func(b *testing.B) {
			p := core.MustCompile(ops.AggrSum, core.Schedule{Strategy: s, Group: 1, Tile: 1})
			k := p.Kernel(g, 64, 64, 0, dev)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gpu.Simulate(dev, k)
			}
		})
	}
}

// BenchmarkGridSearch measures a full tuning pass on a mid-size graph.
func BenchmarkGridSearch(b *testing.B) {
	g := benchGraph(b, 20000, 200000)
	task := schedule.Task{Graph: g, Op: ops.AggrSum, Feat: 64, ACols: 64, Device: gpu.V100()}
	space := schedule.PrunedSpace(task)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := schedule.GridSearch(task, space, gpu.WithMaxSampledBlocks(48)); len(got) == 0 {
			b.Fatal("empty search")
		}
	}
}

// --- backend comparison: reference interpreter vs parallel host backend ---

// backendBenchGraphs lazily generates the two comparison datasets once: AR
// (artist, 1.6M edges, heavily skewed degrees) and PR (PROTEINS_full, 162k
// edges, regular degrees) from the paper's Table 3.
var backendBenchGraphs = struct {
	once sync.Once
	ar   *graph.Graph
	pr   *graph.Graph
}{}

func loadBackendBenchGraphs(b *testing.B) (skewed, regular *graph.Graph) {
	b.Helper()
	backendBenchGraphs.once.Do(func() {
		backendBenchGraphs.ar, _ = datasets.MustLoad("AR")
		backendBenchGraphs.pr, _ = datasets.MustLoad("PR")
	})
	return backendBenchGraphs.ar, backendBenchGraphs.pr
}

// BenchmarkBackendCompare pits the sequential reference interpreter
// against the parallel host backend on a skewed (AR) and a regular (PR)
// dataset, for one vertex-parallel and one edge-parallel strategy. This is
// the ISSUE-1 acceptance benchmark; CHANGES.md records measured speedups.
func BenchmarkBackendCompare(b *testing.B) {
	ar, pr := loadBackendBenchGraphs(b)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"AR-skewed", ar}, {"PR-regular", pr}}
	backends := []struct {
		name string
		b    core.ExecBackend
	}{
		{"reference", core.ReferenceBackend()},
		{"parallel", core.NewParallelBackend(0)},
	}
	const feat = 32
	for _, gr := range graphs {
		for _, strat := range []core.Strategy{core.ThreadVertex, core.ThreadEdge} {
			x := tensor.NewDense(gr.g.NumVertices(), feat)
			x.FillRandom(rand.New(rand.NewSource(7)), 1)
			out := tensor.NewDense(gr.g.NumVertices(), feat)
			o := core.Operands{A: tensor.Src(x), B: tensor.NullTensor, C: tensor.Dst(out)}
			p := core.MustCompile(ops.AggrSum, core.Schedule{Strategy: strat, Group: 1, Tile: 1})
			for _, bk := range backends {
				bk := bk
				b.Run(gr.name+"/"+strat.Code()+"/"+bk.name, func(b *testing.B) {
					k, err := bk.b.Lower(p, gr.g, o)
					if err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(gr.g.NumEdges()) * feat * 4)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := k.Run(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// --- compiled model programs: compile-once steady state vs interpreter ---

// BenchmarkForwardCompiled compares the compiled model path (record ->
// fuse -> schedule -> buffer-plan once, then reuse kernels and arena)
// against the op-by-op interpreter for GCN and GAT on a skewed (AR) and a
// regular (PR) dataset. Run with -benchmem: the compiled steady state
// reports 0 allocs/op for intermediates; the interpreter re-lowers kernels
// and allocates per-stage tensors every iteration. This is the ISSUE-2
// acceptance benchmark; EXPERIMENTS.md records the measured numbers.
func BenchmarkForwardCompiled(b *testing.B) {
	ar, pr := loadBackendBenchGraphs(b)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"AR-skewed", ar}, {"PR-regular", pr}}
	const feat, classes = 32, 16
	for _, gr := range graphs {
		for _, mn := range []string{"GCN", "GAT"} {
			m, err := models.ByName(mn)
			if err != nil {
				b.Fatal(err)
			}
			// A fixed engine keeps schedule choice out of the timing: both
			// paths run identical kernels, so the delta is host overhead.
			eng := &models.FixedEngine{
				EngineName:   "bench",
				Dev:          gpu.V100(),
				AggrSchedule: core.DefaultSchedule,
				MsgCSchedule: core.DefaultSchedule,
				Fuses:        true,
				Compute:      core.NewParallelBackend(0),
			}
			x := tensor.NewDense(gr.g.NumVertices(), feat)
			x.FillRandom(rand.New(rand.NewSource(7)), 1)

			b.Run(gr.name+"/"+mn+"/interpreted", func(b *testing.B) {
				if _, err := m.Forward(gr.g, x, classes, eng); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := m.Forward(gr.g, x, classes, eng); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(gr.name+"/"+mn+"/compiled", func(b *testing.B) {
				cp, err := models.CompileModel(m, gr.g, feat, classes, eng)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := cp.Run(x); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cp.Run(x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTelemetryOverhead measures the cost of the telemetry hooks around
// a copy_u.sum kernel on AR and PR: "disabled" is the default one-atomic-load
// path, "enabled" records spans, counters and kernel records per run. This is
// the observability-issue acceptance benchmark; EXPERIMENTS.md records the
// measured overhead (budget: <5% enabled).
func BenchmarkTelemetryOverhead(b *testing.B) {
	ar, pr := loadBackendBenchGraphs(b)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"AR-skewed", ar}, {"PR-regular", pr}}
	const feat = 32
	entry, ok := ops.Lookup("copy_u.sum")
	if !ok {
		b.Fatal("copy_u.sum not in registry")
	}
	op := entry.Info
	for _, gr := range graphs {
		x := tensor.NewDense(gr.g.NumVertices(), feat)
		x.FillRandom(rand.New(rand.NewSource(7)), 1)
		out := tensor.NewDense(gr.g.NumVertices(), feat)
		o := core.Operands{A: tensor.Src(x), B: tensor.NullTensor, C: tensor.Dst(out)}
		p := core.MustCompile(op, core.Schedule{Strategy: core.ThreadVertex, Group: 1, Tile: 1})
		for _, mode := range []string{"disabled", "enabled"} {
			mode := mode
			b.Run(gr.name+"/"+mode, func(b *testing.B) {
				telemetry.Reset()
				defer telemetry.Reset()
				telemetry.SetEnabled(mode == "enabled")
				k, err := core.NewParallelBackend(0).Lower(p, gr.g, o)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(gr.g.NumEdges()) * feat * 4)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := k.Run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTraceOverhead measures the causal-tracing cost around a full
// compiled forward pass, the unit the serving layer runs per batch:
// "disabled" is the one-atomic-load path, "enabled" records track-local
// spans, and "traced" additionally carries a request TraceState through the
// context so every span gets ids, parent links and a TraceState record —
// exactly what one /v1/infer costs inside RunCtx. This is the tracing-issue
// acceptance benchmark; EXPERIMENTS.md records the measured overhead
// (budget: <5% traced vs disabled).
func BenchmarkTraceOverhead(b *testing.B) {
	ar, pr := loadBackendBenchGraphs(b)
	graphs := []struct {
		name string
		g    *graph.Graph
	}{{"AR-skewed", ar}, {"PR-regular", pr}}
	const feat, classes = 32, 16
	m, err := models.ByName("GCN")
	if err != nil {
		b.Fatal(err)
	}
	for _, gr := range graphs {
		eng := &models.FixedEngine{
			EngineName:   "bench",
			Dev:          gpu.V100(),
			AggrSchedule: core.DefaultSchedule,
			MsgCSchedule: core.DefaultSchedule,
			Fuses:        true,
			Compute:      core.NewParallelBackend(0),
		}
		x := tensor.NewDense(gr.g.NumVertices(), feat)
		x.FillRandom(rand.New(rand.NewSource(7)), 1)
		for _, mode := range []string{"disabled", "enabled", "traced"} {
			mode := mode
			b.Run(gr.name+"/GCN/"+mode, func(b *testing.B) {
				telemetry.Reset()
				defer telemetry.Reset()
				telemetry.SetEnabled(mode != "disabled")
				cp, err := models.CompileModel(m, gr.g, feat, classes, eng)
				if err != nil {
					b.Fatal(err)
				}
				ctx := context.Background()
				if mode == "traced" {
					ctx = telemetry.ContextWithTrace(ctx, telemetry.NewTraceState(0, 0, 256))
				}
				if _, err := cp.RunCtx(ctx, x); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cp.RunCtx(ctx, x); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCacheAccess isolates the cache model's hot loop.
func BenchmarkCacheAccess(b *testing.B) {
	c := gpu.NewCache(6<<20, 128, 16)
	rng := rand.New(rand.NewSource(3))
	lines := make([]int64, 1<<16)
	for i := range lines {
		lines[i] = int64(rng.Intn(1 << 18))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(lines[i&(1<<16-1)])
	}
}
