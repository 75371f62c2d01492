package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/telemetry"
)

// The fallback ladder (DESIGN.md §7): a ResilientBackend wraps a fast
// primary backend (normally the parallel host executor) and, when a kernel
// fails with a *KernelError — a recovered panic, i.e. a backend bug rather
// than a property of the inputs — logs the failure and retries the same
// lowered plan on the sequential reference interpreter. The reference
// backend is the semantic oracle the primary is tested against, so the
// retried run produces the answer the primary should have. Only
// *KernelError triggers the ladder: validation errors, *NumericError and
// context cancellation would fail identically on any backend and pass
// through untouched. On the success path the wrapper costs one interface
// call per kernel.

// ResilientBackend wraps a primary ExecBackend with a per-kernel fallback
// onto the reference interpreter.
type ResilientBackend struct {
	primary   ExecBackend
	logw      io.Writer
	fallbacks atomic.Int64
}

// NewResilientBackend wraps primary with a fallback onto the reference
// interpreter. Fallbacks are logged to stderr; SetLogger redirects or
// silences them.
func NewResilientBackend(primary ExecBackend) *ResilientBackend {
	return &ResilientBackend{primary: primary, logw: os.Stderr}
}

// Name implements ExecBackend.
func (b *ResilientBackend) Name() string { return "resilient" }

// SetLogger redirects fallback logging (nil silences it).
//
//lint:allow unread -- the resilient-ladder tests of core, models and telemetry silence their expected fallbacks with it
func (b *ResilientBackend) SetLogger(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	b.logw = w
}

// Fallbacks reports how many times the ladder fell back to the reference
// interpreter (lowering failures and run failures both count). The counter
// is monotonic for the backend's lifetime.
func (b *ResilientBackend) Fallbacks() int64 { return b.fallbacks.Load() }

// Workers reports the primary backend's worker-pool size (1 when the
// primary runs sequentially).
func (b *ResilientBackend) Workers() int { return Workers(b.primary) }

func (b *ResilientBackend) logf(format string, args ...any) {
	fmt.Fprintf(b.logw, "ugrapher: resilient: "+format+"\n", args...)
}

// countFallback records one ladder activation in the backend counter and in
// telemetry (ugrapher_fallbacks_total plus an instant event on the
// "resilient" track), and emits a one-line warning the first time the ladder
// fires — the signal that the fast path is misbehaving.
func (b *ResilientBackend) countFallback(op string) {
	//lint:allow hook-discipline -- fallbacks must be counted even with telemetry disabled; this is a cold error path
	telemetry.RecordFallback(op, b.primary.Name(), ReferenceBackend().Name())
	if b.fallbacks.Add(1) == 1 {
		b.logf("warning: first fallback from %s to %s — the primary backend is failing kernels; rerun with -trace/-metrics for details",
			b.primary.Name(), ReferenceBackend().Name())
	}
}

// Lower implements ExecBackend. If the primary cannot lower the plan at
// all, the kernel is lowered on the reference interpreter instead (counted
// as a fallback); otherwise the returned kernel runs on the primary and
// ladders down per Run on *KernelError.
func (b *ResilientBackend) Lower(p *Plan, g *graph.Graph, o Operands) (CompiledKernel, error) {
	pk, err := b.primary.Lower(p, g, o)
	if err != nil {
		b.countFallback(opLabel(p))
		b.logf("%s backend failed to lower %s: %v; lowering on %s",
			b.primary.Name(), opLabel(p), err, ReferenceBackend().Name())
		sk, serr := ReferenceBackend().Lower(p, g, o)
		if serr != nil {
			return nil, serr
		}
		return &resilientKernel{b: b, p: p, g: g, o: o, primary: sk, primaryIsFallback: true}, nil
	}
	return &resilientKernel{b: b, p: p, g: g, o: o, primary: pk}, nil
}

type resilientKernel struct {
	b       *ResilientBackend
	p       *Plan
	g       *graph.Graph
	o       Operands
	primary CompiledKernel
	// primaryIsFallback marks a kernel whose "primary" is already the
	// reference interpreter (the primary backend could not even lower the
	// plan), so there is no further rung to fall to.
	primaryIsFallback bool
	// fallback is the lazily lowered reference kernel, cached across runs.
	fallback CompiledKernel
	// epilogue is the region epilogue bound into the primary's chunk bodies
	// (BindEpilogue); a rerun on the reference rung, which has no chunks to
	// carry it, is followed by one application over the whole output.
	epilogue RowEpilogue
}

// BindEpilogue implements EpilogueBinder by passing f through to the primary
// kernel; it reports false, and the compiler composes f as a stage, when the
// primary cannot carry it.
func (k *resilientKernel) BindEpilogue(f RowEpilogue) bool {
	eb, ok := k.primary.(EpilogueBinder)
	if !ok || !eb.BindEpilogue(f) {
		return false
	}
	k.epilogue = f
	return true
}

// Plan implements CompiledKernel.
func (k *resilientKernel) Plan() *Plan { return k.primary.Plan() }

// Counters implements CompiledKernel: the primary kernel's counters (the
// fallback kernel's runs are folded into the backend-level Fallbacks
// counter instead).
func (k *resilientKernel) Counters() Counters { return k.primary.Counters() }

// Run implements CompiledKernel.
func (k *resilientKernel) Run() error { return k.RunCtx(context.Background()) }

// RunCtx implements CompiledKernel: run the primary and, when it fails,
// consider the ladder. Everything that can allocate is in rerun, so a
// successful run allocates nothing.
func (k *resilientKernel) RunCtx(ctx context.Context) error {
	err := k.primary.RunCtx(ctx)
	if err == nil || k.primaryIsFallback {
		return err
	}
	return k.rerun(ctx, err)
}

// rerun is the ladder: on a *KernelError (and only then — see the package
// comment for why other errors pass through), log, count, and run the same
// plan/operands on the reference interpreter. The primary kernel is kept: a
// panic is assumed transient until proven otherwise, so the next Run tries
// the fast path again.
func (k *resilientKernel) rerun(ctx context.Context, err error) error {
	var ke *KernelError
	if !errors.As(err, &ke) {
		return err
	}
	k.b.countFallback(ke.Op)
	k.b.logf("kernel %s [%s] failed on %s: %v; retrying on %s",
		ke.Op, ke.Strategy, ke.Backend, ke.Err, ReferenceBackend().Name())
	if k.fallback == nil {
		fk, lerr := ReferenceBackend().Lower(k.p, k.g, k.o)
		if lerr != nil {
			return fmt.Errorf("resilient fallback lowering failed: %w (after %w)", lerr, err)
		}
		k.fallback = fk
	}
	if err := k.fallback.RunCtx(ctx); err != nil {
		return err
	}
	// The rerun rewrote every output row, including the ones the failed
	// primary had already run the epilogue over: exactly once per row.
	if k.epilogue != nil {
		k.epilogue(0, k.o.C.T.Rows)
	}
	return nil
}
