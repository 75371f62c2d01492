package baselines

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/ops"
	"repro/internal/schedule"
)

// All returns the three baseline engines for a device.
func All(dev *gpu.Device) []models.Engine {
	return []models.Engine{NewDGL(dev), NewPyG(dev), NewGNNAdvisor(dev)}
}

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	b := graph.NewBuilder(1000)
	for i := 0; i < 12000; i++ {
		dst := int32(rng.Intn(1000))
		if rng.Float64() < 0.6 {
			dst = int32(rng.Intn(50)) // skew
		}
		b.AddEdge(int32(rng.Intn(1000)), dst)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBaselineIdentities(t *testing.T) {
	dev := gpu.V100()
	engines := All(dev)
	if len(engines) != 3 {
		t.Fatalf("want 3 baselines, got %d", len(engines))
	}
	names := map[string]bool{}
	for _, e := range engines {
		names[e.Name()] = true
		if e.Device() != dev {
			t.Errorf("%s device wrong", e.Name())
		}
	}
	for _, want := range []string{"DGL", "PyG", "GNNAdvisor"} {
		if !names[want] {
			t.Errorf("missing baseline %s", want)
		}
	}
	if !NewDGL(dev).Fused() || NewPyG(dev).Fused() || !NewGNNAdvisor(dev).Fused() {
		t.Error("fusion properties: DGL and GNNAdvisor fuse, PyG does not")
	}
}

func TestBaselineSchedulesAreStatic(t *testing.T) {
	dev := gpu.V100()
	g := testGraph(t)
	aggr := schedule.Task{Graph: g, Op: ops.AggrSum, Feat: 32, ACols: 32, Device: dev}
	aggrBig := aggr
	aggrBig.Feat = 256
	for _, e := range All(dev) {
		s1 := e.ScheduleFor(aggr)
		s2 := e.ScheduleFor(aggrBig)
		if s1 != s2 {
			t.Errorf("%s schedule should not adapt to input: %v vs %v", e.Name(), s1, s2)
		}
	}
}

func TestDGLUsesDifferentKernelsPerOpClass(t *testing.T) {
	dev := gpu.V100()
	g := testGraph(t)
	dgl := NewDGL(dev)
	aggr := dgl.ScheduleFor(schedule.Task{Graph: g, Op: ops.AggrSum, Feat: 32, Device: dev})
	msg := dgl.ScheduleFor(schedule.Task{Graph: g, Op: ops.UAddV, Feat: 8, Device: dev})
	if aggr.Strategy != core.WarpVertex {
		t.Errorf("DGL aggregation kernel = %v, want warp-vertex", aggr)
	}
	if msg.Strategy != core.ThreadEdge {
		t.Errorf("DGL apply_edges kernel = %v, want thread-edge", msg)
	}
}

func TestSupportsModel(t *testing.T) {
	if SupportsModel("GNNAdvisor", "GAT") || SupportsModel("GNNAdvisor", "SMax") {
		t.Error("GNNAdvisor must not support GAT/Sage")
	}
	if !SupportsModel("GNNAdvisor", "GCN") || !SupportsModel("GNNAdvisor", "GIN") {
		t.Error("GNNAdvisor supports GCN and GIN")
	}
	if !SupportsModel("DGL", "GAT") || !SupportsModel("PyG", "SMean") {
		t.Error("DGL/PyG support all models")
	}
}

// TestUGrapherBeatsBaselinesOnGraphCycles is the end-to-end headline at
// small scale: tuned uGrapher's graph-operator cycles are never worse than
// any fixed baseline on the same model and dataset.
func TestUGrapherBeatsBaselinesOnGraphCycles(t *testing.T) {
	dev := gpu.V100()
	g := testGraph(t)
	tuned := models.NewTunedEngine(dev)
	for _, m := range []models.Model{models.NewGCN(), models.NewGIN()} {
		repT, err := models.InferenceCost(m, g, 64, 8, tuned)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range All(dev) {
			repB, err := models.InferenceCost(m, g, 64, 8, base)
			if err != nil {
				t.Fatal(err)
			}
			// Allow 5% slack for simulator sampling noise between runs.
			if repT.Graph > repB.Graph*1.05 {
				t.Errorf("%s: uGrapher graph cycles %.0f worse than %s's %.0f",
					m.Name(), repT.Graph, base.Name(), repB.Graph)
			}
		}
	}
}

func TestPyGMaterialisesMessages(t *testing.T) {
	dev := gpu.V100()
	g := testGraph(t)
	dgl := NewDGL(dev)
	pyg := NewPyG(dev)
	m := models.NewGCN()
	repD, err := models.InferenceCost(m, g, 64, 8, dgl)
	if err != nil {
		t.Fatal(err)
	}
	repP, err := models.InferenceCost(m, g, 64, 8, pyg)
	if err != nil {
		t.Fatal(err)
	}
	if len(repP.PerOp) <= len(repD.PerOp) {
		t.Error("PyG should run more kernels than DGL (materialised messages)")
	}
}
