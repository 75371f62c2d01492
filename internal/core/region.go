package core

import (
	"context"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Fusion-region composition: a region kernel wraps one lowered graph kernel
// with elementwise prologue/epilogue stages so the whole region — absorbed
// operand chains, the graph operator, and the output epilogue — executes as
// one logical kernel launch. The stages are closures the compiler builds at
// Compile time (they capture staging tensors and unary chains; see
// internal/program); composition itself is backend-agnostic, so the same
// region runs on the reference interpreter and the parallel host executor,
// flat or sharded, unchanged. An output epilogue is a post stage only
// where the inner kernel cannot take it into its chunk bodies
// (EpilogueBinder); the compiler tries that first.
//
// Telemetry: one logical run must count once, so the inner kernel's site is
// silenced and the region registers its own site under the "region" backend
// label.

// RegionStage is one pre-built elementwise stage of a composed region: a
// staging copy that applies an absorbed operand chain, or an in-place
// epilogue over the region output. Stages must not allocate — they run on
// the zero-allocation Run path.
type RegionStage func()

// telemetrySilencer is implemented by lowered kernels whose per-run
// telemetry a wrapping kernel can turn off, keeping one record per logical
// run.
type telemetrySilencer interface{ silenceTelemetry() }

// silenceTelemetry implements telemetrySilencer: the site is released from
// the registry, so the profile does not list a kernel whose runs another
// site records, and nilled. A nil site is inert: Begin returns 0 and End
// does nothing, so the silenced kernel runs untouched.
func (k *refKernel) silenceTelemetry() { k.site.Release(); k.site = nil }

// silenceTelemetry implements telemetrySilencer.
func (k *parallelKernel) silenceTelemetry() { k.site.Release(); k.site = nil }

// silenceTelemetry implements telemetrySilencer: the region's own site and
// the inner kernel's.
func (k *regionKernel) silenceTelemetry() {
	k.site.Release()
	k.site = nil
	ReleaseTelemetry(k.inner)
}

// silenceTelemetry implements telemetrySilencer: every kernel the unfused
// steps lowered, the head included.
func (k *unfusedKernel) silenceTelemetry() {
	for _, sk := range k.kernels {
		ReleaseTelemetry(sk)
	}
}

// ReleaseTelemetry unregisters every telemetry site of a lowered kernel that
// will never run — one lowered by a compile attempt that was then abandoned —
// so the profile and its metrics list only the kernels of the program that
// runs. The kernel stays runnable, unrecorded.
func ReleaseTelemetry(k CompiledKernel) {
	if s, ok := k.(telemetrySilencer); ok {
		s.silenceTelemetry()
	}
}

// silenceTelemetry implements telemetrySilencer: the ladder's record comes
// from whichever rung actually ran, so both rungs are silenced.
func (k *resilientKernel) silenceTelemetry() {
	if s, ok := k.primary.(telemetrySilencer); ok {
		s.silenceTelemetry()
	}
	if s, ok := k.fallback.(telemetrySilencer); ok {
		s.silenceTelemetry()
	}
}

// ComposeRegion wraps an already-lowered kernel with the region's pre and
// post stages and returns the composed kernel. label names the region in
// telemetry (the compiler passes the bounded region name).
func ComposeRegion(inner CompiledKernel, pre, post []RegionStage, label string, g *graph.Graph) CompiledKernel {
	ReleaseTelemetry(inner)
	p := inner.Plan()
	//lint:allow hook-discipline -- site registration happens once at compose time, off the Run hot path
	site := telemetry.NewKernelSite(
		label, p.Schedule.Strategy.Code(), p.Schedule.String(), "region", int64(g.NumEdges()))
	site.Walk = inner.Counters().Walk
	return &regionKernel{inner: inner, pre: pre, post: post, site: site}
}

type regionKernel struct {
	inner     CompiledKernel
	pre, post []RegionStage
	site      *telemetry.KernelSite
}

// Plan implements CompiledKernel.
func (k *regionKernel) Plan() *Plan { return k.inner.Plan() }

// Counters implements CompiledKernel: the inner kernel's counters, with a
// post stage reported as an epilogue that runs after the kernel.
func (k *regionKernel) Counters() Counters {
	c := k.inner.Counters()
	if len(k.post) > 0 {
		c.Epilogue = EpilogueAfter
	}
	return c
}

// ConflictHandling implements ConflictReporter by delegation: the stages are
// elementwise over private or output storage and introduce no new writes
// that could conflict.
func (k *regionKernel) ConflictHandling() string {
	if cr, ok := k.inner.(ConflictReporter); ok {
		return cr.ConflictHandling()
	}
	return ""
}

// Run implements CompiledKernel.
func (k *regionKernel) Run() error { return k.RunCtx(context.Background()) }

// RunCtx implements CompiledKernel: prologue stages, the inner kernel, then
// epilogue stages, as one telemetry record. A panic in a stage is recovered
// into a *KernelError exactly like a panic inside a backend kernel; the
// inner kernel keeps its own recovery, so its errors arrive here already
// typed and pass through.
func (k *regionKernel) RunCtx(ctx context.Context) (err error) {
	tstart := k.site.Begin()
	// Registered before the recover defer so it runs after it (LIFO) and
	// observes the panic already converted into err.
	defer func() {
		oc, detail := outcomeOf(err)
		k.site.EndCtx(ctx, tstart, oc, detail)
	}()
	defer func() {
		if r := recover(); r != nil {
			err = newKernelError(k.inner.Plan(), "region", r, captureStack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, st := range k.pre {
		st()
	}
	if err := k.inner.RunCtx(ctx); err != nil {
		return err
	}
	for _, st := range k.post {
		st()
	}
	return nil
}
