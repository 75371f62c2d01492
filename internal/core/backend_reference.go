package core

import (
	"context"

	"repro/internal/faultinject"
	"repro/internal/graph"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The reference backend: the canonical sequential interpreter of exec.go,
// lowered behind the ExecBackend interface. It is the semantic oracle every
// other backend is tested against; nothing about it is tuned for speed.

type refBackend struct{}

var refBackendInstance = refBackend{}

// ReferenceBackend returns the sequential reference interpreter.
func ReferenceBackend() ExecBackend { return refBackendInstance }

// Name implements ExecBackend.
func (refBackend) Name() string { return "reference" }

// Lower implements ExecBackend: validation happens here, once, so repeated
// Run calls skip it. The head of a row-resident region lowers as the steps it
// stands for, on whole tensors: the oracle runs the recorded program.
func (b refBackend) Lower(p *Plan, g *graph.Graph, o Operands) (k CompiledKernel, err error) {
	if o.Interior != nil {
		return lowerUnfused(b, p, g, o)
	}
	sp := lowerSpan("reference", p)
	defer func() { endLower(sp, err) }()
	if err := faultinject.ErrIf(faultinject.LowerFail); err != nil {
		return nil, err
	}
	if err := p.validateOperands(g.NumVertices(), g.NumEdges(), o); err != nil {
		return nil, err
	}
	return &refKernel{
		p: p, g: g, o: o, fa: makeFetcher(o.A), fb: makeFetcher(o.B),
		// Scratch for the vertex-centric accumulator, held by the kernel so
		// repeated Run calls allocate nothing.
		acc:  make([]float32, o.C.T.Cols),
		site: kernelSite(p, "reference", g),
	}, nil
}

type refKernel struct {
	p      *Plan
	g      *graph.Graph
	o      Operands
	fa, fb fetcher
	acc    []float32
	// site is the telemetry handle, resolved at Lower time. Kernels that
	// wrap this one (a composed region) null it to keep one record per
	// logical run.
	site *telemetry.KernelSite
}

// Plan implements CompiledKernel.
func (k *refKernel) Plan() *Plan { return k.p }

// Run implements CompiledKernel with the closure-per-element interpreter.
func (k *refKernel) Run() error { return k.RunCtx(context.Background()) }

// RunCtx implements CompiledKernel. The interpreter is sequential, so
// cancellation is checked only at the run boundary; a panic inside the
// interpreted loops is recovered into a *KernelError like the parallel
// backend's.
func (k *refKernel) RunCtx(ctx context.Context) (err error) {
	tstart := k.site.Begin()
	// Registered before the recover defer so it runs after it (LIFO) and
	// observes the panic already converted into err.
	defer func() {
		oc, detail := outcomeOf(err)
		k.site.EndCtx(ctx, tstart, oc, detail)
	}()
	defer func() {
		if r := recover(); r != nil {
			err = newKernelError(k.p, "reference", r, captureStack())
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	faultinject.MaybePanic(faultinject.KernelPanic)
	faultinject.MaybeSleep(faultinject.SlowChunk)
	p, g, o := k.p, k.g, k.o
	f := o.C.T.Cols
	switch {
	case p.Op.CKind == tensor.EdgeK:
		p.executeMessageCreation(g, o, k.fa, k.fb, f)
	case p.Schedule.Strategy.VertexParallel():
		p.executeVertexCentric(g, o, k.fa, k.fb, f, k.acc)
	default:
		p.executeEdgeCentric(g, o, k.fa, k.fb, f)
	}
	return finishRun(k.p, o.C.T)
}

// Counters implements CompiledKernel.
func (k *refKernel) Counters() Counters { return Counters{Workers: 1} }
