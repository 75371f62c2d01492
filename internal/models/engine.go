package models

import (
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/program"
	"repro/internal/schedule"
)

// TunedEngine is uGrapher with grid-search tuning: every graph operator gets
// the best schedule found by searching the pruned space on the simulator
// (the paper's exhaustive baseline for predictor validation, Fig. 12).
// Results are memoised per (graph, op, feat, device).
type TunedEngine struct {
	Dev   *gpu.Device
	Tuner *schedule.Tuner
	// Compute is the host backend functional execution runs on
	// (nil = core.NewParallelBackend(0)). Schedule cost always comes from the
	// simulator regardless of this choice.
	Compute core.ExecBackend
}

// NewTunedEngine builds a grid-search engine for dev.
func NewTunedEngine(dev *gpu.Device) *TunedEngine {
	return &TunedEngine{
		Dev:   dev,
		Tuner: schedule.NewTuner(gpu.WithMaxSampledBlocks(96)),
	}
}

// ComputeBackend implements BackendProvider.
func (e *TunedEngine) ComputeBackend() core.ExecBackend { return e.Compute }

// Name implements Engine.
func (e *TunedEngine) Name() string { return "uGrapher" }

// Device implements Engine.
func (e *TunedEngine) Device() *gpu.Device { return e.Dev }

// Fused implements Engine: uGrapher supports fused aggregation.
func (e *TunedEngine) Fused() bool { return true }

// GraphOpOverheadCycles implements Engine: uGrapher dispatches generated
// kernels through a compiled binding (~5 us at V100 clocks).
func (e *TunedEngine) GraphOpOverheadCycles() float64 { return 8000 }

// ScheduleFor implements Engine via cached grid search.
func (e *TunedEngine) ScheduleFor(t schedule.Task) core.Schedule {
	best, ok := e.Tuner.Tune(t)
	if !ok {
		return core.DefaultSchedule
	}
	return best.Schedule
}

// FixedEngine runs every operator with static schedules — the baseline
// frameworks' defining property (Table 1: "Parallelization Strategy:
// Static"). Aggregations and message creations may use different (but
// fixed) kernels, as the real systems do.
type FixedEngine struct {
	EngineName string
	Dev        *gpu.Device
	// AggrSchedule is used for operators producing vertex tensors.
	AggrSchedule core.Schedule
	// MsgCSchedule is used for operators producing edge tensors.
	MsgCSchedule core.Schedule
	// Fuses reports whether the system fuses message creation into
	// aggregation (PyG does not).
	Fuses bool
	// PairFusionOnly restricts a fusing engine to the classic
	// materialise+scatter pair rewrite: its programs compile under
	// program.PairOnlyCostModel, which accepts no region growth and no dense
	// rewrite. Real baselines that fuse (DGL) still only fuse the pair, so
	// experiments compare pair-only against region fusion with this switch.
	PairFusionOnly bool
	// HostOverheadCycles is the per-graph-operator dispatch cost of the
	// framework's host path.
	HostOverheadCycles float64
	// Compute is the host backend functional execution runs on
	// (nil = core.NewParallelBackend(0)). Baselines differ in *schedule*, not in
	// functional semantics, so they share whatever backend computes
	// outputs.
	Compute core.ExecBackend
}

// NewHostEngine is the engine for programs whose wall clock matters: the
// serving daemon and `ugrapher -model`. The host lowering reads nothing of a
// GPU schedule (DESIGN.md §5), so a simulator grid search per operator buys a host program nothing;
// this engine fixes the schedules to the ones that name what the host runs —
// TV_G1_T1, the owner-per-row walk, for vertex-output operators and TE_G1_T1,
// one edge per output row, for edge-output ones — with fusion and regions on.
// compute is the backend the kernels lower onto (nil = core.NewParallelBackend(0)).
// The device only prices InferenceCost and TrainingCost reports: a fixed
// schedule reads no device, so neither a compiled program nor ForwardCtx
// touches it. Choosing host schedules by timing host kernels, rather than
// fixing them here, is an open question (DESIGN.md §5, host lowering).
func NewHostEngine(compute core.ExecBackend) *FixedEngine {
	return &FixedEngine{
		EngineName:         "uGrapher-host",
		Dev:                gpu.V100(),
		AggrSchedule:       core.Schedule{Strategy: core.ThreadVertex, Group: 1, Tile: 1},
		MsgCSchedule:       core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1},
		Fuses:              true,
		HostOverheadCycles: 8000,
		Compute:            compute,
	}
}

// ComputeBackend implements BackendProvider.
func (e *FixedEngine) ComputeBackend() core.ExecBackend { return e.Compute }

// Name implements Engine.
func (e *FixedEngine) Name() string { return e.EngineName }

// Device implements Engine.
func (e *FixedEngine) Device() *gpu.Device { return e.Dev }

// Fused implements Engine.
func (e *FixedEngine) Fused() bool { return e.Fuses }

// FusionCostModel implements program.RegionPolicy: the default model, or,
// for an engine pinned to pair-only fusion, the one that rejects every
// absorption and every dense rewrite.
func (e *FixedEngine) FusionCostModel() program.CostModel {
	if e.PairFusionOnly {
		return program.PairOnlyCostModel()
	}
	return program.DefaultCostModel()
}

// GraphOpOverheadCycles implements Engine.
func (e *FixedEngine) GraphOpOverheadCycles() float64 { return e.HostOverheadCycles }

// ScheduleFor implements Engine with the fixed mapping.
func (e *FixedEngine) ScheduleFor(t schedule.Task) core.Schedule {
	if t.Op.CKind.IsVertex() {
		return e.AggrSchedule
	}
	return e.MsgCSchedule
}
