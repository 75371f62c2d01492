package telemetry_test

// Composition test for the fault-injection satellite: an injected kernel
// panic must surface in telemetry as a failed kernel span and site whose
// identity (op, strategy) matches the *core.KernelError the caller sees —
// the trace tells the same story as the error.

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

func composeGraph(t *testing.T) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(64)
	for i := 0; i < 256; i++ {
		b.AddEdge(int32(rng.Intn(64)), int32(rng.Intn(64)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestInjectedKernelPanicRecordedAsFailedSpan(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	t.Cleanup(faultinject.Reset)
	telemetry.SetEnabled(true)

	g := composeGraph(t)
	const feat = 4 // 256 edges x 4 feats is far below smallWork => 1 worker
	x := tensor.NewDense(g.NumVertices(), feat)
	x.FillRandom(rand.New(rand.NewSource(6)), 1)
	out := tensor.NewDense(g.NumVertices(), feat)
	o := core.Operands{A: tensor.Src(x), B: tensor.NullTensor, C: tensor.Dst(out)}
	p := core.MustCompile(ops.AggrSum, core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1})
	k, err := core.NewParallelBackend(1).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 1})
	err = k.Run()
	var ke *core.KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("Run with injected panic returned %v (%T), want *core.KernelError", err, err)
	}

	stats := telemetry.Default().SiteStats()
	if len(stats) != 1 {
		t.Fatalf("got %d kernel sites, want 1", len(stats))
	}
	site := stats[0]
	if site.Runs != 1 || site.Failures != 1 {
		t.Errorf("site counts %d runs, %d failures; want 1 and 1", site.Runs, site.Failures)
	}
	if site.Op != ke.Op {
		t.Errorf("site op %q != KernelError op %q", site.Op, ke.Op)
	}
	if site.Schedule != ke.Strategy {
		t.Errorf("site schedule %q != KernelError strategy %q", site.Schedule, ke.Strategy)
	}
	if site.Backend != "parallel" {
		t.Errorf("site backend = %q, want parallel", site.Backend)
	}

	// The trace holds a failed kernel span on the parallel track with the
	// same identity.
	var span *telemetry.TraceEvent
	tracks := telemetry.Default().TrackNames()
	for _, ev := range telemetry.Default().Events() {
		if ev.Cat == "kernel" {
			ev := ev
			span = &ev
			break
		}
	}
	if span == nil {
		t.Fatal("no kernel span in the trace")
	}
	if tracks[span.Track] != "parallel" {
		t.Errorf("kernel span on track %q, want parallel", tracks[span.Track])
	}
	if span.Args["outcome"] != string(telemetry.OutcomeKernelError) {
		t.Errorf("span outcome arg = %q, want kernel_error", span.Args["outcome"])
	}
	if span.Args["op"] != ke.Op {
		t.Errorf("span op arg = %q, want %q", span.Args["op"], ke.Op)
	}
	if span.Args["error"] == "" {
		t.Error("failed span carries no error text")
	}
	if got := telemetry.Default().CounterValues()[`ugrapher_kernel_failures_total{backend="parallel",outcome="kernel_error"}`]; got != 1 {
		t.Errorf("failure counter = %d, want 1", got)
	}

	// After disarming, the same kernel runs clean and records an ok outcome.
	faultinject.Reset()
	if err := k.Run(); err != nil {
		t.Fatalf("rerun after recovered panic: %v", err)
	}
	if st := telemetry.Default().SiteStats(); len(st) != 1 || st[0].Runs != 2 || st[0].Failures != 1 {
		t.Errorf("recovery run not counted as ok: %+v", st)
	}
}

// TestResilientFallbackSurfacesInTelemetry: the fallback ladder increments
// ugrapher_fallbacks_total and emits a resilient-track instant event, and the
// per-backend kernel spans show the failed primary run followed by the
// secondary run.
func TestResilientFallbackSurfacesInTelemetry(t *testing.T) {
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	t.Cleanup(faultinject.Reset)
	telemetry.SetEnabled(true)

	g := composeGraph(t)
	const feat = 4
	x := tensor.NewDense(g.NumVertices(), feat)
	x.FillRandom(rand.New(rand.NewSource(7)), 1)
	out := tensor.NewDense(g.NumVertices(), feat)
	o := core.Operands{A: tensor.Src(x), B: tensor.NullTensor, C: tensor.Dst(out)}
	p := core.MustCompile(ops.AggrSum, core.Schedule{Strategy: core.ThreadEdge, Group: 1, Tile: 1})

	rb := core.NewResilientBackend(core.NewParallelBackend(1), nil)
	rb.SetLogger(nil)
	k, err := rb.Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}

	// Fail the first (primary) kernel execution only (Every 0 = fire once):
	// the fallback's rerun on the reference backend must succeed.
	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 1})
	if err := k.Run(); err != nil {
		t.Fatalf("resilient Run should recover via fallback, got %v", err)
	}
	if got := rb.Fallbacks(); got != 1 {
		t.Fatalf("backend fallbacks = %d, want 1", got)
	}
	if got := telemetry.Fallbacks(); got != 1 {
		t.Errorf("telemetry fallbacks = %d, want 1", got)
	}
	if got := telemetry.Default().CounterValues()[telemetry.MetricFallbacks]; got != 1 {
		t.Errorf("%s = %d, want 1", telemetry.MetricFallbacks, got)
	}

	tracks := telemetry.Default().TrackNames()
	var kernels []telemetry.TraceEvent
	for _, ev := range telemetry.Default().Events() {
		if ev.Cat == "kernel" {
			kernels = append(kernels, ev)
		}
	}
	if len(kernels) != 2 {
		t.Fatalf("got %d kernel spans, want 2 (failed primary + successful secondary): %+v", len(kernels), kernels)
	}
	if tracks[kernels[0].Track] != "parallel" || kernels[0].Args["outcome"] != string(telemetry.OutcomeKernelError) {
		t.Errorf("primary span wrong: %+v", kernels[0])
	}
	if tracks[kernels[1].Track] != "reference" || kernels[1].Args["outcome"] != string(telemetry.OutcomeOK) {
		t.Errorf("secondary span wrong: %+v", kernels[1])
	}

	// The resilient track carries the fallback instant event.
	found := false
	for _, ev := range telemetry.Default().Events() {
		if ev.Instant && ev.Cat == "fallback" && tracks[ev.Track] == "resilient" {
			found = true
			if ev.Args["from"] != "parallel" || ev.Args["to"] != "reference" {
				t.Errorf("fallback event args wrong: %+v", ev.Args)
			}
		}
	}
	if !found {
		t.Error("no fallback instant event on the resilient track")
	}
}
