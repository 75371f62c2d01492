package models

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/gpu"
	"repro/internal/ops"
	"repro/internal/program"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// TestTraceKernelSpansMatchCompiledProgram pins the acceptance criterion from
// the observability issue: one Run of a compiled program emits exactly one
// kernel span per graph kernel the compiler reports in Stats().
func TestTraceKernelSpansMatchCompiledProgram(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)

	g := smallGraph(t, 21)
	const inFeat, classes = 12, 5
	eng := &FixedEngine{
		EngineName:   "fixed-test",
		Dev:          gpu.V100(),
		AggrSchedule: core.DefaultSchedule,
		MsgCSchedule: core.DefaultSchedule,
		Fuses:        true,
		Compute:      core.NewParallelBackend(1),
	}
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(77)), 1)

	cp, err := CompileModel(NewGCN(), g, inFeat, classes, eng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Run(x); err != nil {
		t.Fatal(err)
	}

	var kernelSpans, stepSpans, runSpans int
	for _, ev := range telemetry.Default().Events() {
		if ev.Instant {
			continue
		}
		switch ev.Cat {
		case "kernel":
			kernelSpans++
		case "step":
			stepSpans++
		case "run":
			runSpans++
		}
	}
	want := cp.Stats().GraphKernels
	if kernelSpans != want {
		t.Errorf("trace has %d kernel spans after one Run, want %d (Stats().GraphKernels)", kernelSpans, want)
	}
	if runSpans != 1 {
		t.Errorf("trace has %d run spans, want 1", runSpans)
	}
	if stepSpans == 0 {
		t.Error("trace has no program step spans")
	}
	if got := telemetry.Default().CounterValues()[telemetry.MetricProgramRuns]; got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricProgramRuns, got)
	}

	// A second Run doubles the kernel spans: spans are per execution, not per
	// lowering.
	if _, err := cp.Run(x); err != nil {
		t.Fatal(err)
	}
	kernelSpans = 0
	for _, ev := range telemetry.Default().Events() {
		if !ev.Instant && ev.Cat == "kernel" {
			kernelSpans++
		}
	}
	if kernelSpans != 2*want {
		t.Errorf("trace has %d kernel spans after two Runs, want %d", kernelSpans, 2*want)
	}
}

// TestTraceCausalParentLinksThroughRun pins the tentpole invariant from the
// tracing issue: when a request's TraceState rides the context into RunCtx,
// every span the layers below emit — the run span, each program step, each
// backend kernel — carries the trace id and a parent link that resolves
// inside the same trace, forming one connected tree.
func TestTraceCausalParentLinksThroughRun(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)

	g := smallGraph(t, 29)
	const inFeat, classes = 12, 5
	eng := &FixedEngine{
		EngineName:   "fixed-test",
		Dev:          gpu.V100(),
		AggrSchedule: core.DefaultSchedule,
		MsgCSchedule: core.DefaultSchedule,
		Fuses:        true,
		Compute:      core.NewParallelBackend(1),
	}
	x := tensor.NewDense(g.NumVertices(), inFeat)
	x.FillRandom(rand.New(rand.NewSource(78)), 1)

	cp, err := CompileModel(NewGCN(), g, inFeat, classes, eng)
	if err != nil {
		t.Fatal(err)
	}
	ts := telemetry.NewTraceState(0, 0, 128)
	ctx := telemetry.ContextWithTrace(context.Background(), ts)
	if _, err := cp.RunCtx(ctx, x); err != nil {
		t.Fatal(err)
	}

	var runID uint64
	stepIDs := map[uint64]bool{}
	var kernels, steps int
	for _, ev := range telemetry.Default().Events() {
		if ev.Instant || ev.TraceID == 0 {
			continue
		}
		if ev.TraceID != ts.TraceID() {
			t.Errorf("span %q carries trace %x, want %x", ev.Name, ev.TraceID, ts.TraceID())
		}
		if ev.SpanID == 0 {
			t.Errorf("traced span %q has no span id", ev.Name)
		}
		switch ev.Cat {
		case "run":
			runID = ev.SpanID
		case "step":
			stepIDs[ev.SpanID] = true
			steps++
		}
	}
	if runID == 0 || steps == 0 {
		t.Fatalf("trace missing run/step spans (run=%d steps=%d)", runID, steps)
	}
	for _, ev := range telemetry.Default().Events() {
		if ev.Instant || ev.TraceID == 0 {
			continue
		}
		switch ev.Cat {
		case "step":
			if ev.ParentID != runID {
				t.Errorf("step %q parents onto %d, want run span %d", ev.Name, ev.ParentID, runID)
			}
		case "kernel":
			kernels++
			if !stepIDs[ev.ParentID] {
				t.Errorf("kernel %q parents onto %d, not a step span", ev.Name, ev.ParentID)
			}
		}
	}
	if want := cp.Stats().GraphKernels; kernels != want {
		t.Errorf("traced kernel spans = %d, want %d", kernels, want)
	}
	// The TraceState retained the same tree for the exemplar store.
	spans, truncated := ts.Snapshot()
	if truncated != 0 || len(spans) == 0 {
		t.Fatalf("trace state snapshot: %d spans, %d truncated", len(spans), truncated)
	}
}

// TestTracedRunZeroAllocs extends the steady-state guarantee to the traced
// enabled path: with telemetry on and a request TraceState flowing through
// the context, RunCtx still allocates nothing per run. Span identity rides in
// value structs, span records land in the TraceState's pre-sized buffer (or
// bump its truncation count once full), and kernel spans reuse the site's
// precomputed args map.
func TestTracedRunZeroAllocs(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)
	// Pre-size the global event buffer so appends never reallocate the
	// backing array mid-measurement.
	telemetry.Default().SetMaxEvents(1 << 16)

	zeroAllocConfigs(t, func(label string, cp *program.CompiledProgram, x *tensor.Dense) {
		ts := telemetry.NewTraceState(0, 0, 512)
		ctx := telemetry.ContextWithTrace(context.Background(), ts)
		if _, err := cp.RunCtx(ctx, x); err != nil { // warm up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := cp.RunCtx(ctx, x); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: traced RunCtx allocates %.1f objects/run, want 0", label, allocs)
		}
	})
}

// TestStepWallTimesCoverDenseSteps: with telemetry on, every compiled step —
// GEMMs and the add among them, not only the graph kernels the kernel
// histogram sees — records one ugrapher_step_wall_seconds{model,step}
// observation per run and reports a median through StepModes; the exporter
// carries the series. (TestTracedRunZeroAllocs holds the enabled path to zero
// allocations.)
func TestStepWallTimesCoverDenseSteps(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	telemetry.SetEnabled(true)

	g := denseGraph(t, 59)
	const inFeat, classes, runs = 64, 7, 3
	x := poolInput(g, inFeat)
	cp, err := CompileModel(NewSage(ops.GatherMean), g, inFeat, classes, NewHostEngine(core.NewShardedParallelBackend(2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < runs; i++ {
		if _, err := cp.Run(x); err != nil {
			t.Fatal(err)
		}
	}
	dense := 0
	for _, sm := range cp.StepModes() {
		if sm.Op != "graph" {
			dense++
		}
		series := telemetry.Series2(telemetry.MetricStepWall, "model", "SMean", "step", sm.Name)
		if n := telemetry.Default().Histogram(series, telemetry.DefaultLatencyBuckets).Count(); n != runs {
			t.Errorf("%s holds %d observations after %d runs", series, n, runs)
		}
		if sm.P50 <= 0 {
			t.Errorf("step %s %s reports no median wall time", sm.Op, sm.Name)
		}
	}
	if dense == 0 {
		t.Fatal("no dense step in the compiled program")
	}
	var buf strings.Builder
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `ugrapher_step_wall_seconds_count{model="SMean",step="SageL1_w_concat"} 3`; !strings.Contains(buf.String(), want) {
		t.Errorf("metrics snapshot lacks %q", want)
	}
}

// TestDecliningBackendRegistersOnlyTheRunningKernels: on a backend without a
// row-resident lowering — the reference interpreter, the simulator — GAT
// compiles twice, the first attempt stopping at the region head; the parallel
// backend at four shards lowers the regions at the first attempt. Neither a
// declined attempt's lowered kernels nor the inner kernels a region wraps may
// stay registered: after one Run, the kernel sites -profile and /metrics read
// are exactly the graph kernels of the program that runs, each with its one
// run.
func TestDecliningBackendRegistersOnlyTheRunningKernels(t *testing.T) {
	for _, be := range []core.ExecBackend{core.ReferenceBackend(), core.NewSimBackend(nil), core.NewShardedParallelBackend(2, 4)} {
		t.Run(be.Name(), func(t *testing.T) {
			telemetry.Reset()
			t.Cleanup(telemetry.Reset)
			telemetry.SetEnabled(true)
			g := smallGraph(t, 23)
			const inFeat, classes = 12, 5
			cp, err := CompileModel(NewGAT(), g, inFeat, classes, NewHostEngine(be))
			if err != nil {
				t.Fatal(err)
			}
			declined := false
			for _, n := range cp.Rewrites() {
				declined = declined || (n.Pass == program.PassRowResident && !n.Accepted)
			}
			if _, lowers := be.(*core.ParallelBackend); declined == lowers {
				t.Fatalf("%s: declined a row-resident region: %v, want %v: %v", be.Name(), declined, !lowers, cp.Rewrites())
			}
			x := tensor.NewDense(g.NumVertices(), inFeat)
			x.FillRandom(rand.New(rand.NewSource(5)), 1)
			if _, err := cp.Run(x); err != nil {
				t.Fatal(err)
			}
			sites := telemetry.Default().SiteStats()
			if want := cp.Stats().GraphKernels; len(sites) != want {
				t.Errorf("%d kernel sites registered, want the program's %d graph kernels", len(sites), want)
			}
			for _, s := range sites {
				if s.Runs != 1 {
					t.Errorf("site %s (%s, %s) has %d runs, want 1", s.Op, s.Schedule, s.Backend, s.Runs)
				}
			}
		})
	}
}

// TestFailedCompileReleasesItsKernelSites: a compile that fails after it
// lowered every kernel — the row-closure rule rejecting a corrupted row walk,
// the last check Compile runs — leaves no kernel site registered.
func TestFailedCompileReleasesItsKernelSites(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	t.Cleanup(faultinject.Reset)
	telemetry.SetEnabled(true)
	faultinject.Arm(faultinject.CorruptRowClosure, faultinject.Spec{Every: 1})
	g := smallGraph(t, 24)
	if _, err := CompileModel(NewGAT(), g, 12, 5, NewHostEngine(core.NewParallelBackend(2))); err == nil {
		t.Fatal("compile with a corrupted row walk succeeded")
	}
	if sites := telemetry.Default().SiteStats(); len(sites) != 0 {
		t.Errorf("a failed compile left %d kernel sites registered: %+v", len(sites), sites)
	}
}
