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
// through untouched.
//
// The ladder has a gate (SetLadder). With it off a *KernelError surfaces to
// the caller like any other error, so one set of lowered kernels serves both
// as the plain fast path and as its own degraded form: the serving layer's
// circuit breaker keeps the gate off while it is counting failures and turns
// it on while it is open. On the success path the wrapper costs one
// interface call per kernel; the gate is read only after a kernel failed.

// ResilientBackend wraps a primary ExecBackend with a per-kernel fallback
// onto a secondary (reference by default).
type ResilientBackend struct {
	primary   ExecBackend
	secondary ExecBackend
	logw      io.Writer
	fallbacks atomic.Int64
	// window counts fallbacks since the last Reset. Fallbacks stays
	// monotonic for the process lifetime; window supports per-interval rates
	// (a metrics scraper calls Reset each window and reports the delta).
	window atomic.Int64
	// ladder gates the per-Run fallback (SetLadder); read on a kernel's
	// error path only.
	ladder atomic.Bool
}

// NewResilientBackend wraps primary (nil = the parallel host backend) with
// a fallback onto secondary (nil = the reference interpreter). Fallbacks
// are logged to stderr; SetLogger redirects or silences them.
func NewResilientBackend(primary, secondary ExecBackend) *ResilientBackend {
	if primary == nil {
		primary = NewParallelBackend(0)
	}
	if secondary == nil {
		secondary = ReferenceBackend()
	}
	b := &ResilientBackend{primary: primary, secondary: secondary, logw: os.Stderr}
	b.ladder.Store(true)
	return b
}

// Name implements ExecBackend.
func (b *ResilientBackend) Name() string { return "resilient" }

// SetLogger redirects fallback logging (nil silences it).
func (b *ResilientBackend) SetLogger(w io.Writer) {
	if w == nil {
		w = io.Discard
	}
	b.logw = w
}

// SetLadder turns the per-Run fallback on (the default) or off. Off, a
// kernel's *KernelError is returned to the caller and nothing is counted or
// rerun; kernels whose primary could not lower at all keep running on the
// secondary either way. Safe to call between runs from any goroutine.
func (b *ResilientBackend) SetLadder(on bool) { b.ladder.Store(on) }

// Fallbacks reports how many times the ladder fell back to the secondary
// backend (lowering failures and run failures both count). The counter is
// monotonic for the backend's lifetime; use Snapshot/Reset for windowed
// rates.
func (b *ResilientBackend) Fallbacks() int64 { return b.fallbacks.Load() }

// Snapshot reports the fallbacks recorded since the last Reset without
// disturbing the window. Together with Reset it supports per-window fallback
// rates (e.g. a serving layer's per-scrape gauge) on top of the monotonic
// Fallbacks counter.
func (b *ResilientBackend) Snapshot() int64 { return b.window.Load() }

// Reset returns the fallbacks recorded since the previous Reset and zeroes
// the window. Fallbacks() is unaffected.
func (b *ResilientBackend) Reset() int64 { return b.window.Swap(0) }

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
	telemetry.RecordFallback(op, b.primary.Name(), b.secondary.Name())
	b.window.Add(1)
	if b.fallbacks.Add(1) == 1 {
		b.logf("warning: first fallback from %s to %s — the primary backend is failing kernels; rerun with -trace/-metrics for details",
			b.primary.Name(), b.secondary.Name())
	}
}

// Lower implements ExecBackend. If the primary cannot lower the plan at
// all, the kernel is lowered on the secondary instead (counted as a
// fallback); otherwise the returned kernel runs on the primary and ladders
// down per Run on *KernelError.
func (b *ResilientBackend) Lower(p *Plan, g *graph.Graph, o Operands) (CompiledKernel, error) {
	pk, err := b.primary.Lower(p, g, o)
	if errors.Is(err, ErrNoRowRegion) {
		// Not a failure of the primary: it has no row-resident form for these
		// operands, and the caller compiles the recorded steps instead.
		return nil, err
	}
	if err != nil {
		b.countFallback(opLabel(p))
		b.logf("%s backend failed to lower %s: %v; lowering on %s",
			b.primary.Name(), opLabel(p), err, b.secondary.Name())
		sk, serr := b.lowerSecondary(p, g, o)
		if serr != nil {
			return nil, serr
		}
		return &resilientKernel{b: b, p: p, g: g, o: o, primary: sk, primaryIsFallback: true}, nil
	}
	return &resilientKernel{b: b, p: p, g: g, o: o, primary: pk}, nil
}

// lowerSecondary lowers on the fallback rung. The head of a row-resident
// region is lowered there as the steps it stands for, on whole tensors: the
// secondary is the oracle, and the oracle runs the recorded program.
func (b *ResilientBackend) lowerSecondary(p *Plan, g *graph.Graph, o Operands) (CompiledKernel, error) {
	if o.Interior != nil {
		return lowerUnfused(b.secondary, p, g, o)
	}
	return b.secondary.Lower(p, g, o)
}

type resilientKernel struct {
	b       *ResilientBackend
	p       *Plan
	g       *graph.Graph
	o       Operands
	primary CompiledKernel
	// primaryIsFallback marks a kernel whose "primary" is already the
	// secondary backend (the primary backend could not even lower the plan),
	// so there is no further rung to fall to.
	primaryIsFallback bool
	// fallback is the lazily lowered secondary kernel, cached across runs.
	fallback CompiledKernel
	// epilogue is the region epilogue bound into the primary's chunk bodies
	// (BindEpilogue); a rerun on the secondary, which has no chunks to carry
	// it, is followed by one application over the whole output.
	epilogue RowEpilogue
}

// Unwrap returns the primary kernel, so a sharded lowering stays visible
// behind the ladder (AsShardedLowering).
func (k *resilientKernel) Unwrap() CompiledKernel { return k.primary }

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
// comment for why other errors pass through) with the ladder on, log, count,
// and run the same plan/operands on the secondary. The primary kernel is
// kept: a panic is assumed transient until proven otherwise, so the next Run
// tries the fast path again.
func (k *resilientKernel) rerun(ctx context.Context, err error) error {
	var ke *KernelError
	if !errors.As(err, &ke) || !k.b.ladder.Load() {
		return err
	}
	k.b.countFallback(ke.Op)
	k.b.logf("kernel %s [%s] failed on %s: %v; retrying on %s",
		ke.Op, ke.Strategy, ke.Backend, ke.Err, k.b.secondary.Name())
	if k.fallback == nil {
		fk, lerr := k.b.lowerSecondary(k.p, k.g, k.o)
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
