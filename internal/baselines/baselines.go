// Package baselines models the three systems the paper compares against
// (§6 "Baselines") as fixed-schedule engines over the same simulator:
//
//   - DGL: fused message passing with static handwritten kernels — a
//     feature-parallel (warp-per-vertex) CSR kernel for aggregations and an
//     edge-parallel kernel for apply_edges.
//   - PyG: gather/scatter execution that always materialises per-edge
//     messages (no fusion), with thread-per-edge kernels.
//   - GNNAdvisor: warp-edge kernels with fixed neighbour grouping and
//     dimension tiling (its 2D workload management), tuned once, not per
//     input; supports only GCN and GIN.
//
// What makes them baselines is precisely what the paper criticises: the
// schedule never adapts to the operator or the dataset.
package baselines

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/models"
)

// NewDGL returns the DGL-like engine.
func NewDGL(dev *gpu.Device) models.Engine {
	return &models.FixedEngine{
		EngineName:   "DGL",
		Dev:          dev,
		AggrSchedule: core.Schedule{Strategy: core.WarpVertex, Group: 1, Tile: 1},
		MsgCSchedule: core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1},
		Fuses:        true,
		// DGL's update_all path goes through Python message-passing
		// dispatch: ~45 us per graph operator at V100 clocks.
		HostOverheadCycles: 62000,
		// Baselines differ from uGrapher in schedule choice, never in
		// functional semantics: Compute stays nil — the shared default host
		// backend, resolved when a functional pass starts (overridable per
		// engine for A/B runs) — so costing a baseline builds no backend.
	}
}

// NewPyG returns the PyG-like engine. PyG's scatter-based execution always
// materialises edge messages, so Fuses is false: every fused aggregation
// becomes a message-creation kernel plus a scatter kernel.
func NewPyG(dev *gpu.Device) models.Engine {
	return &models.FixedEngine{
		EngineName:   "PyG",
		Dev:          dev,
		AggrSchedule: core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1},
		MsgCSchedule: core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1},
		Fuses:        false,
		// PyG's gather/scatter path allocates and dispatches per edge-op in
		// Python: ~55 us per graph operator.
		HostOverheadCycles: 76000,
	}
}

// NewGNNAdvisor returns the GNNAdvisor-like engine: warp-edge with its
// default neighbour-group size (its neighbor_group=16 style workload
// mapping) and dimension tiling fixed at 2 — static parameters regardless of
// input (the paper keeps GNNAdvisor's defaults and disables renumbering for
// fairness).
func NewGNNAdvisor(dev *gpu.Device) models.Engine {
	return &models.FixedEngine{
		EngineName:   "GNNAdvisor",
		Dev:          dev,
		AggrSchedule: core.Schedule{Strategy: core.WarpEdge, Group: 16, Tile: 2},
		MsgCSchedule: core.Schedule{Strategy: core.WarpEdge, Group: 16, Tile: 1},
		Fuses:        true,
		// GNNAdvisor's thin C++ runtime: ~10 us per operator.
		HostOverheadCycles: 14000,
	}
}

// SupportsModel reports whether a baseline can run the model: GNNAdvisor
// only implements GCN and GIN (the paper's Fig. 13 leaves those cells
// empty).
func SupportsModel(engineName, modelName string) bool {
	if engineName == "GNNAdvisor" {
		return modelName == "GCN" || modelName == "GIN"
	}
	return true
}

// All returns the three baseline engines for a device.
func All(dev *gpu.Device) []models.Engine {
	return []models.Engine{NewDGL(dev), NewPyG(dev), NewGNNAdvisor(dev)}
}
