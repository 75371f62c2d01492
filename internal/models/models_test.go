package models

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/schedule"
	"repro/internal/tensor"
)

func smallGraph(t testing.TB, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 300
	b := graph.NewBuilder(n)
	for i := 0; i < 2500; i++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// fixedTestEngine pins one schedule to keep functional tests deterministic.
type fixedTestEngine struct {
	dev   *gpu.Device
	sched core.Schedule
	fused bool
}

func (e fixedTestEngine) Name() string                              { return "test" }
func (e fixedTestEngine) GraphOpOverheadCycles() float64            { return 0 }
func (e fixedTestEngine) Device() *gpu.Device                       { return e.dev }
func (e fixedTestEngine) Fused() bool                               { return e.fused }
func (e fixedTestEngine) ScheduleFor(t schedule.Task) core.Schedule { return e.sched }

func TestAllAndByName(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("want 6 benchmark models, got %d", len(all))
	}
	names := map[string]bool{}
	for _, m := range all {
		names[m.Name()] = true
	}
	for _, want := range []string{"GCN", "GIN", "GAT", "SSum", "SMax", "SMean"} {
		if !names[want] {
			t.Errorf("missing model %s", want)
		}
		if _, err := ByName(want); err != nil {
			t.Errorf("ByName(%s): %v", want, err)
		}
	}
	if _, err := ByName("RGCN"); err == nil {
		t.Error("unknown model should fail")
	}
}

func TestInferenceCostAllModels(t *testing.T) {
	g := smallGraph(t, 1)
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	for _, m := range All() {
		rep, err := InferenceCost(m, g, 64, 7, eng)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if rep.Total <= 0 || rep.Graph <= 0 || rep.Dense <= 0 {
			t.Errorf("%s: degenerate cost report %+v", m.Name(), rep)
		}
		if math.Abs(rep.Total-(rep.Graph+rep.Dense)) > 1e-6 {
			t.Errorf("%s: total != graph + dense", m.Name())
		}
		if len(rep.PerOp) < 3 {
			t.Errorf("%s: suspiciously few ops: %d", m.Name(), len(rep.PerOp))
		}
		if rep.Model != m.Name() || rep.Engine != "test" {
			t.Errorf("%s: report labels wrong: %+v", m.Name(), rep)
		}
	}
}

func TestForwardAllModelsShapes(t *testing.T) {
	g := smallGraph(t, 2)
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	x := tensor.NewDense(g.NumVertices(), 32)
	x.FillRandom(rand.New(rand.NewSource(3)), 1)
	for _, m := range All() {
		out, err := ForwardCtx(context.Background(), m, g, x, 5, eng)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if out.Rows != g.NumVertices() || out.Cols != 5 {
			t.Errorf("%s: output shape %dx%d, want %dx5", m.Name(), out.Rows, out.Cols, g.NumVertices())
		}
		var finite bool
		for _, v := range out.Data {
			if v != 0 {
				finite = true
			}
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite output", m.Name())
			}
		}
		if !finite {
			t.Errorf("%s: all-zero output", m.Name())
		}
	}
}

// TestForwardScheduleInvariance: the functional result must not depend on
// the engine's schedule choice.
func TestForwardScheduleInvariance(t *testing.T) {
	g := smallGraph(t, 4)
	x := tensor.NewDense(g.NumVertices(), 16)
	x.FillRandom(rand.New(rand.NewSource(5)), 1)
	for _, m := range All() {
		var ref *tensor.Dense
		for _, sched := range []core.Schedule{
			{Strategy: core.ThreadVertex, Group: 1, Tile: 1},
			{Strategy: core.WarpEdge, Group: 4, Tile: 2},
		} {
			eng := fixedTestEngine{dev: gpu.V100(), sched: sched, fused: true}
			out, err := ForwardCtx(context.Background(), m, g, x.Clone(), 4, eng)
			if err != nil {
				t.Fatalf("%s/%v: %v", m.Name(), sched, err)
			}
			if ref == nil {
				ref = out
				continue
			}
			if !out.AllClose(ref, 1e-2, 1e-2) {
				t.Errorf("%s: schedule %v changes results (maxdiff %v)",
					m.Name(), sched, out.MaxDiff(ref))
			}
		}
	}
}

// TestFusionDecomposition: an unfused engine must produce the same values
// while running strictly more graph kernels and more graph cycles.
func TestFusionDecomposition(t *testing.T) {
	g := smallGraph(t, 6)
	x := tensor.NewDense(g.NumVertices(), 16)
	x.FillRandom(rand.New(rand.NewSource(7)), 1)
	fused := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	unfused := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: false}

	m := NewGCN()
	outF, err := ForwardCtx(context.Background(), m, g, x.Clone(), 4, fused)
	if err != nil {
		t.Fatal(err)
	}
	outU, err := ForwardCtx(context.Background(), m, g, x.Clone(), 4, unfused)
	if err != nil {
		t.Fatal(err)
	}
	if !outF.AllClose(outU, 1e-2, 1e-2) {
		t.Fatalf("fusion changed values: maxdiff %v", outF.MaxDiff(outU))
	}

	repF, err := InferenceCost(m, g, 16, 4, fused)
	if err != nil {
		t.Fatal(err)
	}
	repU, err := InferenceCost(m, g, 16, 4, unfused)
	if err != nil {
		t.Fatal(err)
	}
	countGraph := func(r CostReport) int {
		n := 0
		for _, op := range r.PerOp {
			if op.Kind == "graph" {
				n++
			}
		}
		return n
	}
	if countGraph(repU) != 2*countGraph(repF) {
		t.Errorf("unfused should double graph kernels: %d vs %d", countGraph(repU), countGraph(repF))
	}
	if repU.Graph <= repF.Graph {
		t.Errorf("materialised messages should cost more: %v vs %v", repU.Graph, repF.Graph)
	}
	// Materialisation names must show up.
	var sawMat bool
	for _, op := range repU.PerOp {
		if strings.Contains(op.Name, "_materialize") {
			sawMat = true
		}
	}
	if !sawMat {
		t.Error("unfused report should contain materialize kernels")
	}
}

func TestSageGEMMShare(t *testing.T) {
	// SageMax (hidden 256) must have a larger dense share than GCN
	// (hidden 16) — the paper's explanation for its smaller speedup. At toy
	// sizes everything is launch-overhead bound, so use a mid-size graph.
	rng := rand.New(rand.NewSource(8))
	b := graph.NewBuilder(20000)
	for i := 0; i < 200000; i++ {
		b.AddEdge(int32(rng.Intn(20000)), int32(rng.Intn(20000)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	gcn, err := InferenceCost(NewGCN(), g, 128, 8, eng)
	if err != nil {
		t.Fatal(err)
	}
	smax, err := InferenceCost(NewSage(ops.GatherMax), g, 128, 8, eng)
	if err != nil {
		t.Fatal(err)
	}
	gcnShare := gcn.Dense / gcn.Total
	smaxShare := smax.Dense / smax.Total
	if smaxShare <= gcnShare {
		t.Errorf("SMax dense share %.2f should exceed GCN's %.2f", smaxShare, gcnShare)
	}
}

func TestTunedEngineBeatsFixedOnCost(t *testing.T) {
	g := smallGraph(t, 9)
	dev := gpu.V100()
	tuned := NewTunedEngine(dev)
	fixed := fixedTestEngine{dev: dev, sched: core.Schedule{Strategy: core.ThreadVertex, Group: 1, Tile: 1}, fused: true}
	m := NewGCN()
	repT, err := InferenceCost(m, g, 64, 8, tuned)
	if err != nil {
		t.Fatal(err)
	}
	repF, err := InferenceCost(m, g, 64, 8, fixed)
	if err != nil {
		t.Fatal(err)
	}
	if repT.Graph > repF.Graph {
		t.Errorf("tuned graph cycles %v should not exceed fixed %v", repT.Graph, repF.Graph)
	}
	if tuned.Fused() != true || tuned.Name() != "uGrapher" || tuned.Device() != dev {
		t.Error("tuned engine metadata wrong")
	}
}

func TestFixedEngineScheduleMapping(t *testing.T) {
	dev := gpu.V100()
	e := &FixedEngine{
		EngineName:   "X",
		Dev:          dev,
		AggrSchedule: core.Schedule{Strategy: core.WarpVertex, Group: 1, Tile: 1},
		MsgCSchedule: core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1},
		Fuses:        true,
	}
	g := smallGraph(t, 10)
	aggrTask := schedule.Task{Graph: g, Op: ops.AggrSum, Feat: 8, Device: dev}
	msgTask := schedule.Task{Graph: g, Op: ops.UAddV, Feat: 8, Device: dev}
	if e.ScheduleFor(aggrTask).Strategy != core.WarpVertex {
		t.Error("aggregation should use AggrSchedule")
	}
	if e.ScheduleFor(msgTask).Strategy != core.ThreadEdge {
		t.Error("message creation should use MsgCSchedule")
	}
}
