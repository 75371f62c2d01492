package core

import (
	"context"

	"repro/internal/gpu"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// The sim backend: the GPU cycle simulator behind the ExecBackend
// interface. Lowering projects the plan as a gpu.Kernel (kernel.go); Run
// computes the functional output with the reference interpreter and then
// replays the kernel on the device model, recording simulated cycles in the
// counters. It is the source of schedule *cost*; the parallel backend is
// the source of fast functional *compute* — selecting "sim" gives correct
// outputs plus a per-run performance model, at interpreter speed.

// SimBackend wraps the cycle simulator for a fixed device.
type SimBackend struct {
	dev  *gpu.Device
	opts []gpu.Option
}

// NewSimBackend builds a simulator backend for dev (nil = V100). Options
// tune trace fidelity, e.g. gpu.WithMaxSampledBlocks.
func NewSimBackend(dev *gpu.Device, opts ...gpu.Option) *SimBackend {
	if dev == nil {
		dev = gpu.V100()
	}
	return &SimBackend{dev: dev, opts: opts}
}

// Name implements ExecBackend.
func (b *SimBackend) Name() string { return "sim" }

// Device returns the simulated device.
func (b *SimBackend) Device() *gpu.Device { return b.dev }

// Lower implements ExecBackend.
func (b *SimBackend) Lower(p *Plan, g *graph.Graph, o Operands) (ck CompiledKernel, err error) {
	sp := lowerSpan(b.Name(), p)
	defer func() { endLower(sp, err) }()
	ref, err := ReferenceBackend().Lower(p, g, o)
	if err != nil {
		return nil, err
	}
	// The wrapped compute kernel records through the sim kernel's site, not
	// its own: one logical run must count once, and it should carry the
	// simulator metrics.
	ReleaseTelemetry(ref)
	gk, err := p.KernelFor(g, o, b.dev)
	if err != nil {
		return nil, err
	}
	return &simKernel{b: b, compute: ref, gk: gk, g: g, site: kernelSite(p, b.Name(), g)}, nil
}

type simKernel struct {
	b       *SimBackend
	compute CompiledKernel // reference interpreter for the functional output
	gk      gpu.Kernel
	g       *graph.Graph
	runs    int64
	metrics gpu.Metrics
	site    *telemetry.KernelSite
	// sample is reused across runs so the steady state allocates nothing.
	sample telemetry.SimSample
}

// Plan implements CompiledKernel.
func (k *simKernel) Plan() *Plan { return k.compute.Plan() }

// Run implements CompiledKernel: functional output plus a simulation pass.
func (k *simKernel) Run() error { return k.RunCtx(context.Background()) }

// RunCtx implements CompiledKernel: the functional pass delegates
// cancellation and panic recovery to the wrapped compute kernel; the
// simulation replay only happens after a successful compute pass.
func (k *simKernel) RunCtx(ctx context.Context) error {
	tstart := k.site.Begin()
	if err := k.compute.RunCtx(ctx); err != nil {
		oc, detail := outcomeOf(err)
		k.site.EndCtx(ctx, tstart, oc, detail, nil)
		return err
	}
	k.metrics = gpu.Simulate(k.b.dev, k.gk, k.b.opts...)
	k.runs++
	k.sample = telemetry.SimSample{
		Cycles:    k.metrics.Cycles,
		L1HitRate: k.metrics.L1HitRate,
		L2HitRate: k.metrics.L2HitRate,
	}
	k.site.EndCtx(ctx, tstart, telemetry.OutcomeOK, "", &k.sample)
	return nil
}

// Metrics returns the simulated metrics of the last Run.
func (k *simKernel) Metrics() gpu.Metrics { return k.metrics }

// Counters implements CompiledKernel.
func (k *simKernel) Counters() Counters {
	return Counters{
		Runs:      k.runs,
		Edges:     k.runs * int64(k.g.NumEdges()),
		Shards:    k.runs,
		Workers:   1,
		SimCycles: k.metrics.Cycles,
	}
}
