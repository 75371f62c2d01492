package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/faultinject"
	"repro/internal/ops"
)

// The fault-injection suite of DESIGN.md §7: each hardening guard is proven
// to catch the exact fault it claims to, by arming the corresponding
// injection point and asserting the typed error (or the recovery) it
// produces. Points are process-global, so every test disarms on exit; the
// package's tests within one binary run sequentially unless marked parallel,
// and none of these are.

func TestKernelPanicBecomesKernelError(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 300, 4000, 11)
	ref := makeOperands(g, ops.AggrSum, 16, false, 3)
	if err := Reference(g, ops.AggrSum, ref); err != nil {
		t.Fatal(err)
	}
	o := makeOperands(g, ops.AggrSum, 16, false, 3)
	p := MustCompile(ops.AggrSum, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	k, err := NewParallelBackend(4).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}

	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 1})
	err = k.Run()
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("Run with injected panic returned %v (%T), want *KernelError", err, err)
	}
	if ke.Backend != "parallel" {
		t.Errorf("KernelError.Backend = %q, want parallel", ke.Backend)
	}
	if ke.Op == "" || ke.Strategy == "" {
		t.Errorf("KernelError identity incomplete: Op=%q Strategy=%q", ke.Op, ke.Strategy)
	}
	if len(ke.Stack) == 0 {
		t.Error("KernelError.Stack empty; triage needs the panic origin")
	}
	var fp faultinject.Panic
	if !errors.As(err, &fp) || fp.Point != faultinject.KernelPanic {
		t.Errorf("KernelError does not unwrap to the injected Panic value: %v", err)
	}

	// The process survived; after disarming, the same lowered kernel is
	// reusable and correct — the failed run left no poisoned state.
	faultinject.Reset()
	if err := k.Run(); err != nil {
		t.Fatalf("rerun after recovered panic: %v", err)
	}
	if !o.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
		t.Errorf("rerun output differs from reference (maxdiff %v)", o.C.T.MaxDiff(ref.C.T))
	}
}

// TestKernelPanicSequentialPath: the single-worker fast path recovers at the
// Run boundary (no worker goroutine involved).
func TestKernelPanicSequentialPath(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 20, 60, 4) // 60 edges x 4 feats << smallWork => 1 worker
	o := makeOperands(g, ops.AggrSum, 4, false, 1)
	p := MustCompile(ops.AggrSum, Schedule{Strategy: ThreadVertex, Group: 1, Tile: 1})
	k, err := NewParallelBackend(4).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 1})
	var ke *KernelError
	if err := k.Run(); !errors.As(err, &ke) {
		t.Fatalf("sequential path returned %v, want *KernelError", err)
	}
}

func TestReferenceBackendPanicIsolated(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 50, 200, 2)
	o := makeOperands(g, ops.AggrMean, 8, false, 6)
	p := MustCompile(ops.AggrMean, DefaultSchedule)
	k, err := ReferenceBackend().Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 1})
	var ke *KernelError
	if err := k.Run(); !errors.As(err, &ke) {
		t.Fatalf("reference backend returned %v, want *KernelError", err)
	} else if ke.Backend != "reference" {
		t.Errorf("KernelError.Backend = %q, want reference", ke.Backend)
	}
}

// TestParallelCancellation is the satellite's race test: cancel mid-run on
// the AR-sized graph (1.6M edges, heavy skew), assert the workers return
// promptly, and prove nothing of the aborted run leaks into the next run of
// the same lowered kernel.
func TestParallelCancellation(t *testing.T) {
	defer faultinject.Reset()
	g, _, err := datasets.Load("AR")
	if err != nil {
		t.Fatal(err)
	}
	const feat = 16
	o := makeOperands(g, ops.AggrSum, feat, false, 1)
	p := MustCompile(ops.AggrSum, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	k, err := NewParallelBackend(4).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}

	// A pre-cancelled context is refused before any compute.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if err := k.RunCtx(pre); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunCtx = %v, want context.Canceled", err)
	}

	// Slow every chunk so the run reliably outlives the cancel signal
	// (50.5k rows in 394-row chunks ≈ 128 sleeps across 4 workers).
	faultinject.Arm(faultinject.SlowChunk, faultinject.Spec{After: 1, Every: 1, Delay: 2 * time.Millisecond})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = k.RunCtx(ctx)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-run: err = %v, want context.Canceled", err)
	}
	// "Prompt" = bounded by a few chunk bodies, not by finishing the run
	// (which would take the full ~100ms+ of injected sleeps).
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; workers did not stop at chunk claims", elapsed)
	}

	// No leak: the aborted run left a partly written output, and the next
	// run of the same kernel must still match the sequential oracle (every
	// row is rebuilt from its identity, never accumulated onto).
	faultinject.Reset()
	if err := k.Run(); err != nil {
		t.Fatalf("rerun after cancellation: %v", err)
	}
	ref := makeOperands(g, ops.AggrSum, feat, false, 1)
	if err := Reference(g, ops.AggrSum, ref); err != nil {
		t.Fatal(err)
	}
	if !o.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
		t.Errorf("post-cancel rerun differs from reference (maxdiff %v)", o.C.T.MaxDiff(ref.C.T))
	}
}

// TestDeadlineFiresOnSlowKernel: an injected hang (every chunk sleeping)
// trips the caller's deadline within budget instead of running to
// completion.
func TestDeadlineFiresOnSlowKernel(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 1000, 20000, 7)
	o := makeOperands(g, ops.AggrSum, 8, false, 9)
	p := MustCompile(ops.AggrSum, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	k, err := NewParallelBackend(4).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}
	// ~20 sleeping chunks on 4 workers ≈ 150ms+ of injected delay; the
	// 60ms deadline must interrupt that walk.
	faultinject.Arm(faultinject.SlowChunk, faultinject.Spec{After: 1, Every: 1, Delay: 30 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = k.RunCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow kernel under deadline: err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("deadline honoured only after %v", elapsed)
	}
}

func TestCheckNumericsNamesOffendingOp(t *testing.T) {
	defer faultinject.Reset()
	SetCheckNumerics(true)
	defer SetCheckNumerics(false)
	if !CheckNumerics() {
		t.Fatal("SetCheckNumerics(true) did not stick")
	}

	g := testGraph(t, 100, 800, 5)
	o := makeOperands(g, ops.AggrMax, 8, false, 2)
	p := MustCompile(ops.AggrMax, Schedule{Strategy: WarpVertex, Group: 1, Tile: 1})
	k, err := NewParallelBackend(4).Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(faultinject.NaNPoke, faultinject.Spec{After: 1})
	err = k.Run()
	var ne *NumericError
	if !errors.As(err, &ne) {
		t.Fatalf("poisoned output returned %v (%T), want *NumericError", err, err)
	}
	if ne.Op != opLabel(p) {
		t.Errorf("NumericError.Op = %q, want %q (the guard must name the op)", ne.Op, opLabel(p))
	}
	if !strings.Contains(err.Error(), "NaN") {
		t.Errorf("error does not say NaN: %v", err)
	}

	// Clean data passes with the guard still on.
	faultinject.Reset()
	if err := k.Run(); err != nil {
		t.Fatalf("clean run with numeric guard on: %v", err)
	}

	// Guard off (the default): the same poison goes unreported — the scan
	// is strictly opt-in so hot paths pay nothing.
	SetCheckNumerics(false)
	faultinject.Arm(faultinject.NaNPoke, faultinject.Spec{After: 1})
	if err := k.Run(); err != nil {
		t.Fatalf("guard off must not scan: %v", err)
	}
}

// TestResilientFallbackMatchesReference is the satellite's golden test: an
// injected parallel-kernel fault makes the ResilientBackend rerun the plan
// on the reference interpreter, transparently, with the oracle's output.
func TestResilientFallbackMatchesReference(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 300, 4000, 13)
	ref := makeOperands(g, ops.AggrSum, 16, false, 8)
	if err := Reference(g, ops.AggrSum, ref); err != nil {
		t.Fatal(err)
	}

	rb := NewResilientBackend(NewParallelBackend(4), nil)
	rb.SetLogger(nil)
	if rb.Name() != "resilient" {
		t.Fatalf("Name() = %q", rb.Name())
	}
	o := makeOperands(g, ops.AggrSum, 16, false, 8)
	p := MustCompile(ops.AggrSum, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	k, err := rb.Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}

	// Fire-once spec: the panic hits the parallel primary's first chunk;
	// the reference rerun shares the same (global) injection point and must
	// not re-trip it.
	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 1})
	if err := k.Run(); err != nil {
		t.Fatalf("resilient Run with injected primary fault: %v", err)
	}
	if got := rb.Fallbacks(); got != 1 {
		t.Errorf("Fallbacks() = %d, want 1", got)
	}
	if !o.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
		t.Errorf("fallback output differs from reference (maxdiff %v)", o.C.T.MaxDiff(ref.C.T))
	}

	// The primary is retried on the next run (panics are assumed
	// transient): with nothing armed it succeeds and no new fallback is
	// counted.
	faultinject.Reset()
	if err := k.Run(); err != nil {
		t.Fatalf("resilient rerun: %v", err)
	}
	if got := rb.Fallbacks(); got != 1 {
		t.Errorf("Fallbacks() after clean rerun = %d, want still 1", got)
	}
	if !o.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
		t.Error("clean rerun on primary differs from reference")
	}
}

// TestResilientLadderGate: one lowered kernel is both the fast path and its
// degraded form. Through the wrapper the primary still takes a region
// epilogue into its chunks and a sharded lowering stays visible; with the
// ladder on, a primary that fails after some chunks already ran the epilogue
// is rerun on the reference interpreter and the epilogue lands exactly once
// per row; with the ladder off the same fault surfaces as a *KernelError and
// nothing is counted or rerun.
func TestResilientLadderGate(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 700, 9000, 29)
	const feat = 8
	ref := makeOperands(g, ops.AggrSum, feat, false, 5)
	if err := Reference(g, ops.AggrSum, ref); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 5} {
		rb := NewResilientBackend(NewShardedParallelBackend(4, shards), nil)
		rb.SetLogger(nil)
		o := makeOperands(g, ops.AggrSum, feat, false, 5)
		p := MustCompile(ops.AggrSum, Schedule{Strategy: WarpEdge, Group: 1, Tile: 1})
		k, err := rb.Lower(p, g, o)
		if err != nil {
			t.Fatal(err)
		}
		out := o.C.T
		if !k.(EpilogueBinder).BindEpilogue(func(lo, hi int) {
			r := out.RowRange(lo, hi)
			for i := range r.Data {
				r.Data[i] = 2*r.Data[i] + 1
			}
		}) {
			t.Fatalf("shards=%d: the ladder did not pass the epilogue to its primary", shards)
		}
		if c := k.Counters(); c.Epilogue != EpilogueInChunk {
			t.Errorf("shards=%d: epilogue %q, want %q", shards, c.Epilogue, EpilogueInChunk)
		}
		if sl, ok := AsShardedLowering(k); ok != (shards > 1) || ok && sl.ShardCount() != shards {
			t.Errorf("shards=%d: sharded lowering behind the ladder: found=%v", shards, ok)
		}
		check := func(when string) {
			t.Helper()
			for i, v := range ref.C.T.Data {
				if d := out.Data[i] - (2*v + 1); d > 1e-4 || d < -1e-4 {
					t.Fatalf("shards=%d %s: element %d = %v, want %v (epilogue skipped or repeated)", shards, when, i, out.Data[i], 2*v+1)
				}
			}
		}

		// The third chunk (or shard) panics, after two ran their epilogue.
		faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 3})
		if err := k.Run(); err != nil {
			t.Fatalf("shards=%d: ladder on: %v", shards, err)
		}
		if got := rb.Fallbacks(); got != 1 {
			t.Errorf("shards=%d: Fallbacks() = %d, want 1", shards, got)
		}
		check("after a rerun")

		rb.SetLadder(false)
		faultinject.Arm(faultinject.KernelPanicLoad, faultinject.Spec{After: 3})
		var ke *KernelError
		if err := k.Run(); !errors.As(err, &ke) {
			t.Fatalf("shards=%d: ladder off: Run = %v, want *KernelError", shards, err)
		}
		if got := rb.Fallbacks(); got != 1 {
			t.Errorf("shards=%d: ladder off counted a fallback: %d, want still 1", shards, got)
		}
		faultinject.Reset()
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		check("on the primary")
	}
}

// TestResilientLowerFallback: the ladder also covers lowering failures — if
// the primary cannot lower the plan, the kernel is lowered on the secondary.
func TestResilientLowerFallback(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 200, 3000, 17)
	ref := makeOperands(g, ops.AggrMean, 8, false, 4)
	if err := Reference(g, ops.AggrMean, ref); err != nil {
		t.Fatal(err)
	}

	rb := NewResilientBackend(NewParallelBackend(4), nil)
	rb.SetLogger(nil)
	o := makeOperands(g, ops.AggrMean, 8, false, 4)
	p := MustCompile(ops.AggrMean, Schedule{Strategy: WarpEdge, Group: 1, Tile: 1})
	// Fire-once: the primary's Lower trips, the secondary's must not.
	faultinject.Arm(faultinject.LowerFail, faultinject.Spec{After: 1})
	k, err := rb.Lower(p, g, o)
	if err != nil {
		t.Fatalf("resilient Lower with injected primary failure: %v", err)
	}
	if got := rb.Fallbacks(); got != 1 {
		t.Errorf("Fallbacks() = %d, want 1", got)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !o.C.T.AllClose(ref.C.T, 1e-4, 1e-4) {
		t.Errorf("lower-fallback output differs from reference (maxdiff %v)", o.C.T.MaxDiff(ref.C.T))
	}
}

// TestResilientPassesThroughNonKernelErrors: only *KernelError ladders.
// Cancellation and numeric faults would fail identically on any backend and
// must pass through without a fallback.
func TestResilientPassesThroughNonKernelErrors(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 200, 3000, 19)
	rb := NewResilientBackend(NewParallelBackend(4), nil)
	rb.SetLogger(nil)
	o := makeOperands(g, ops.AggrSum, 8, false, 4)
	p := MustCompile(ops.AggrSum, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	k, err := rb.Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := k.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunCtx(cancelled) = %v, want context.Canceled", err)
	}
	if got := rb.Fallbacks(); got != 0 {
		t.Errorf("cancellation triggered %d fallbacks; must pass through", got)
	}

	SetCheckNumerics(true)
	defer SetCheckNumerics(false)
	faultinject.Arm(faultinject.NaNPoke, faultinject.Spec{After: 1})
	var ne *NumericError
	if err := k.Run(); !errors.As(err, &ne) {
		t.Fatalf("Run with poisoned output = %v, want *NumericError", err)
	}
	if got := rb.Fallbacks(); got != 0 {
		t.Errorf("numeric fault triggered %d fallbacks; a data property is not retried", got)
	}
}

// TestResilientWindowCounter: Snapshot/Reset expose a per-window fallback
// count on top of the monotonic Fallbacks counter.
func TestResilientWindowCounter(t *testing.T) {
	defer faultinject.Reset()
	g := testGraph(t, 200, 3000, 23)
	rb := NewResilientBackend(NewParallelBackend(4), nil)
	rb.SetLogger(nil)
	o := makeOperands(g, ops.AggrSum, 8, false, 4)
	p := MustCompile(ops.AggrSum, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	k, err := rb.Lower(p, g, o)
	if err != nil {
		t.Fatal(err)
	}
	if got := rb.Snapshot(); got != 0 {
		t.Fatalf("Snapshot() before any fallback = %d", got)
	}
	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := rb.Snapshot(); got != 1 {
		t.Errorf("Snapshot() = %d, want 1", got)
	}
	if got := rb.Reset(); got != 1 {
		t.Errorf("Reset() = %d, want 1", got)
	}
	if got := rb.Snapshot(); got != 0 {
		t.Errorf("Snapshot() after Reset = %d, want 0", got)
	}
	if got := rb.Fallbacks(); got != 1 {
		t.Errorf("Fallbacks() after Reset = %d, want 1 (monotonic)", got)
	}
	// A second window accumulates independently.
	faultinject.Arm(faultinject.KernelPanic, faultinject.Spec{After: 1})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := rb.Snapshot(), int64(1); got != want {
		t.Errorf("second window Snapshot() = %d, want %d", got, want)
	}
	if got := rb.Fallbacks(); got != 2 {
		t.Errorf("Fallbacks() = %d, want 2", got)
	}
}

func TestValidateEnvBackend(t *testing.T) {
	t.Setenv("UGRAPHER_BACKEND", "")
	if err := ValidateEnvBackend(); err != nil {
		t.Errorf("empty env: %v", err)
	}
	t.Setenv("UGRAPHER_BACKEND", "resilient")
	if err := ValidateEnvBackend(); err != nil {
		t.Errorf("resilient: %v", err)
	}
	t.Setenv("UGRAPHER_BACKEND", "cuda")
	err := ValidateEnvBackend()
	if err == nil {
		t.Fatal("bad backend name accepted")
	}
	for _, name := range BackendNames {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list valid backend %q", err, name)
		}
	}
}

func TestValidateEnvWorkers(t *testing.T) {
	t.Setenv("UGRAPHER_WORKERS", "")
	if err := ValidateEnvWorkers(); err != nil {
		t.Errorf("empty env: %v", err)
	}
	t.Setenv("UGRAPHER_WORKERS", "8")
	if err := ValidateEnvWorkers(); err != nil {
		t.Errorf("8 workers: %v", err)
	}
	for _, bad := range []string{"0", "-2", "abc", "10000000"} {
		t.Setenv("UGRAPHER_WORKERS", bad)
		err := ValidateEnvWorkers()
		if err == nil {
			t.Errorf("UGRAPHER_WORKERS=%q accepted, want error", bad)
			continue
		}
		// The CLI contract: the error names the valid range.
		if !strings.Contains(err.Error(), "1 through 4096") {
			t.Errorf("error %q does not list the valid range", err)
		}
	}
	// The backend constructor honours a valid env count and survives (with a
	// warning) an invalid one.
	t.Setenv("UGRAPHER_WORKERS", "6")
	if got := NewShardedParallelBackend(0, 1).Workers(); got != 6 {
		t.Errorf("workers = %d, want 6 from env", got)
	}
	t.Setenv("UGRAPHER_WORKERS", "bogus")
	if got := NewShardedParallelBackend(0, 1).Workers(); got < 1 {
		t.Errorf("workers = %d with invalid env, want NumCPU fallback", got)
	}
}

// BenchmarkCheckNumerics quantifies the opt-in numeric guard: the same
// lowered kernel with the post-run NaN/Inf scan off (the default) and on.
// EXPERIMENTS.md records the delta.
func BenchmarkCheckNumerics(b *testing.B) {
	g, _, err := datasets.Load("AR")
	if err != nil {
		b.Fatal(err)
	}
	const feat = 32
	o := makeOperands(g, ops.AggrSum, feat, false, 1)
	p := MustCompile(ops.AggrSum, Schedule{Strategy: ThreadEdge, Group: 1, Tile: 1})
	k, err := NewParallelBackend(0).Lower(p, g, o)
	if err != nil {
		b.Fatal(err)
	}
	for _, guard := range []bool{false, true} {
		name := "guard-off"
		if guard {
			name = "guard-on"
		}
		b.Run(name, func(b *testing.B) {
			SetCheckNumerics(guard)
			defer SetCheckNumerics(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := k.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunWithCtxCancelled: the top-level API threads the context down to the
// kernel.
func TestRunWithCtxCancelled(t *testing.T) {
	g := testGraph(t, 50, 300, 3)
	o := makeOperands(g, ops.AggrSum, 4, false, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunWithCtx(ctx, NewParallelBackend(2), g, ops.AggrSum, o, DefaultSchedule, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunWithCtx(cancelled) = %v, want context.Canceled", err)
	}
}
