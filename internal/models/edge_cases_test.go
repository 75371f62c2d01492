package models

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// Edge-case and failure-injection tests for the model layer.

func TestModelsOnEdgelessGraph(t *testing.T) {
	g, err := graph.FromCOO(50, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	for _, m := range All() {
		rep, err := InferenceCost(m, g, 16, 4, eng)
		if err != nil {
			t.Fatalf("%s cost on edgeless graph: %v", m.Name(), err)
		}
		if rep.Total <= 0 {
			t.Errorf("%s: zero cost", m.Name())
		}
		x := tensor.NewDense(50, 16)
		x.Fill(1)
		out, err := ForwardCtx(context.Background(), m, g, x, 4, eng)
		if err != nil {
			t.Fatalf("%s forward on edgeless graph: %v", m.Name(), err)
		}
		for _, v := range out.Data {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				t.Fatalf("%s: non-finite output on edgeless graph", m.Name())
			}
		}
	}
}

func TestModelsOnSelfLoopGraph(t *testing.T) {
	// Every vertex points only at itself: aggregation is an identity-like
	// gather, and nothing should blow up.
	b := graph.NewBuilder(20)
	for v := int32(0); v < 20; v++ {
		b.AddEdge(v, v)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.Schedule{Strategy: core.WarpEdge, Group: 1, Tile: 1}, fused: true}
	x := tensor.NewDense(20, 8)
	x.FillRandom(newRand(1), 1)
	for _, m := range All() {
		if _, err := ForwardCtx(context.Background(), m, g, x.Clone(), 3, eng); err != nil {
			t.Fatalf("%s on self-loop graph: %v", m.Name(), err)
		}
	}
}

func TestSingleVertexGraph(t *testing.T) {
	g, err := graph.FromCOO(1, []int32{0}, []int32{0})
	if err != nil {
		t.Fatal(err)
	}
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	x := tensor.NewDense(1, 4)
	x.Fill(2)
	out, err := ForwardCtx(context.Background(), NewGCN(), g, x, 2, eng)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows != 1 || out.Cols != 2 {
		t.Fatalf("shape %dx%d", out.Rows, out.Cols)
	}
}

func TestGINEpsInfluencesOutput(t *testing.T) {
	g := smallGraph(t, 21)
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	x := tensor.NewDense(g.NumVertices(), 8)
	x.FillRandom(newRand(2), 1)

	m1 := &GIN{Hidden: 16, Layers: 2, Eps: 0}
	m2 := &GIN{Hidden: 16, Layers: 2, Eps: 5}
	o1, err := ForwardCtx(context.Background(), m1, g, x.Clone(), 3, eng)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := ForwardCtx(context.Background(), m2, g, x.Clone(), 3, eng)
	if err != nil {
		t.Fatal(err)
	}
	if o1.AllClose(o2, 1e-3, 1e-3) {
		t.Error("epsilon should change GIN's output")
	}
}

func TestCostDoesNotAllocateOutputs(t *testing.T) {
	// Cost-only mode must work on graphs whose functional tensors would be
	// enormous — verify it completes fast on a million-edge shape.
	b := graph.NewBuilder(200000)
	r := newRand(3)
	for i := 0; i < 1000000; i++ {
		b.AddEdge(int32(r.Intn(200000)), int32(r.Intn(200000)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	rep, err := InferenceCost(NewGCN(), g, 512, 16, eng)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total <= 0 {
		t.Error("no cost")
	}
}

// newRand is a local helper mirroring rand.New(rand.NewSource(seed)).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
