package analysis

import (
	"strings"
	"testing"
)

// lintOne lints src as a single file in dir and returns the findings.
func lintOne(t *testing.T, dir, src string) []Finding {
	t.Helper()
	fs, err := LintSource("test.go", src, dir)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	return fs
}

// wantFinding asserts exactly one finding with the given rule.
func wantFinding(t *testing.T, fs []Finding, rule string) {
	t.Helper()
	var hits int
	for _, f := range fs {
		if f.Rule == rule {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("want exactly one %s finding, got %d in %v", rule, hits, fs)
	}
}

func wantClean(t *testing.T, fs []Finding) {
	t.Helper()
	if len(fs) != 0 {
		t.Fatalf("want no findings, got %v", fs)
	}
}

func TestLintHookDiscipline(t *testing.T) {
	const hdr = `package core
import "repro/internal/telemetry"
`
	t.Run("unguarded call in audited dir", func(t *testing.T) {
		fs := lintOne(t, "internal/core", hdr+`
func f() { telemetry.RecordKernelRun() }
`)
		wantFinding(t, fs, LintHookDiscipline)
	})
	t.Run("same call outside audited dirs is fine", func(t *testing.T) {
		fs := lintOne(t, "internal/models", hdr+`
func f() { telemetry.RecordKernelRun() }
`)
		wantClean(t, fs)
	})
	t.Run("self-guarded hooks pass", func(t *testing.T) {
		fs := lintOne(t, "internal/core", hdr+`
func f() {
	telemetry.CountProgramRun()
	sp := telemetry.StartSpan("a", "b", "c")
	_ = sp
}
`)
		wantClean(t, fs)
	})
	t.Run("positive guard passes", func(t *testing.T) {
		fs := lintOne(t, "internal/core", hdr+`
func f() {
	if telemetry.Enabled() {
		telemetry.RecordKernelRun()
	}
}
`)
		wantClean(t, fs)
	})
	t.Run("early-exit guard passes", func(t *testing.T) {
		fs := lintOne(t, "internal/core", hdr+`
func f() {
	if !telemetry.Enabled() {
		return
	}
	telemetry.RecordKernelRun()
}
`)
		wantClean(t, fs)
	})
	t.Run("guard without return does not dominate", func(t *testing.T) {
		fs := lintOne(t, "internal/core", hdr+`
func f() {
	if !telemetry.Enabled() {
		_ = 0
	}
	telemetry.RecordKernelRun()
}
`)
		wantFinding(t, fs, LintHookDiscipline)
	})
	t.Run("renamed import still audited", func(t *testing.T) {
		fs := lintOne(t, "internal/program", `package program
import tel "repro/internal/telemetry"

func f() { tel.RecordKernelRun() }
`)
		wantFinding(t, fs, LintHookDiscipline)
	})
	t.Run("allow directive suppresses", func(t *testing.T) {
		fs := lintOne(t, "internal/core", hdr+`
func f() {
	//lint:allow hook-discipline -- registration happens once at compile time
	telemetry.RecordKernelRun()
}
`)
		wantClean(t, fs)
	})
}

func TestLintPanicJustification(t *testing.T) {
	t.Run("bare panic flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

func f() { panic("boom") }
`)
		wantFinding(t, fs, LintPanicJustification)
	})
	t.Run("adjacent invariant comment passes", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

func f(ok bool) {
	if !ok {
		// invariant: callers validated ok upstream.
		panic("boom")
	}
}
`)
		wantClean(t, fs)
	})
	t.Run("function doc invariant passes", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

// f panics on invariant violations only.
func f() { panic("boom") }
`)
		wantClean(t, fs)
	})
	t.Run("comment too far above does not count", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

func f(a int) int {
	// invariant: placeholder far from the panic.
	a++
	a++
	a++
	a++
	a++
	a++
	a++
	a++
	a++
	panic("boom")
}
`)
		wantFinding(t, fs, LintPanicJustification)
	})
	t.Run("shadowed panic is not the builtin", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

func f() {
	panic := func(string) {}
	panic("fine")
}
`)
		wantClean(t, fs)
	})
	t.Run("allow directive suppresses", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

func f() {
	//lint:allow panic-justification -- deliberate test crash
	panic("boom")
}
`)
		wantClean(t, fs)
	})
}

func TestLintNoAllocInRun(t *testing.T) {
	t.Run("make in kernel Run flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

type fastKernel struct{}

func (k *fastKernel) Run() {
	_ = make([]float32, 8)
}
`)
		wantFinding(t, fs, LintNoAllocInRun)
	})
	t.Run("append in RunCtx flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

type fastKernel struct{ buf []int }

func (k *fastKernel) RunCtx() {
	k.buf = append(k.buf, 1)
}
`)
		wantFinding(t, fs, LintNoAllocInRun)
	})
	t.Run("append in RunRows flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

type fastKernel struct{ runs [][2]int32 }

func (k *fastKernel) RunRows(rows []int32) {
	k.runs = append(k.runs, [2]int32{rows[0], rows[0] + 1})
}
`)
		wantFinding(t, fs, LintNoAllocInRun)
	})
	t.Run("closure in Run flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

type fastKernel struct{}

func (k *fastKernel) Run(g func(func())) {
	g(func() {})
}
`)
		wantFinding(t, fs, LintNoAllocInRun)
	})
	t.Run("direct defer closure exempt", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

type fastKernel struct{ n int }

func (k *fastKernel) Run() {
	defer func() { k.n++ }()
	k.n++
}
`)
		wantClean(t, fs)
	})
	t.Run("span inner loops are audited", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

type rowReducer struct{ tmp []float32 }

func spanSum(r *rowReducer, acc []float32) {
	r.tmp = append(r.tmp, acc...)
}

func (r *rowReducer) reduce(acc []float32) {
	_ = make([]float32, len(acc))
}

func lowerRowReducer() *rowReducer { return new(rowReducer) }
`)
		var hits int
		for _, f := range fs {
			if f.Rule == LintNoAllocInRun {
				hits++
			}
		}
		if hits != 2 {
			t.Fatalf("want two no-alloc findings (span func + reducer method, not the lowering), got %d in %v", hits, fs)
		}
	})
	t.Run("packed GEMM and the vector-kernel package are audited", func(t *testing.T) {
		gemm := `package tensor

func GemmPackedRowsInto(out []float32) { _ = make([]float32, len(out)) }

func gemmPackedRowsGo(out []float32) { _ = append(out, 0) }

func GemmPackedRowsAccInto(out []float32) { _ = new(int) }

func ReLU(d []float32) { _ = make([]float32, len(d)) }

func AddScaledInto(out []float32) { _ = append(out, 0) }

func PackB(b []float32) []float32 { return make([]float32, len(b)) }

func ReLUGrad(d []float32) []float32 { return make([]float32, len(d)) }
`
		if fs := lintOne(t, "internal/tensor", gemm); len(fs) != 5 {
			t.Fatalf("want the three gemmPacked functions and the two elementwise dispatchers flagged, the packer and ReLUGrad not, got %v", fs)
		}
		if fs := lintOne(t, "internal/x", gemm); len(fs) != 0 {
			t.Fatalf("gemmPacked functions outside internal/tensor flagged: %v", fs)
		}
		fs := lintOne(t, "internal/vec", `package vec

func SumRows(acc []float32) int {
	tmp := make([]float32, len(acc))
	return len(tmp)
}

func each(f func(int)) { f(0) }

func MaxRows(acc []float32) { each(func(j int) { acc[j] = 0 }) }
`)
		if len(fs) != 2 {
			t.Fatalf("want every internal/vec function audited (make + closure), got %v", fs)
		}
	})
	t.Run("non-kernel receivers not audited", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

type builder struct{}

func (b *builder) Run() {
	_ = make([]float32, 8)
}
`)
		wantClean(t, fs)
	})
	t.Run("other methods of kernels not audited", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

type fastKernel struct{}

func (k *fastKernel) Lower() {
	_ = make([]float32, 8)
}
`)
		wantClean(t, fs)
	})
}

func TestLintDirective(t *testing.T) {
	t.Run("directive without reason is a finding", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

func f() {
	//lint:allow panic-justification
	panic("boom")
}
`)
		// The reasonless directive does not suppress, so both findings appear.
		wantFinding(t, fs, LintDirective)
		wantFinding(t, fs, LintPanicJustification)
	})
	t.Run("directive covers its own and the next line", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

func f() {
	//lint:allow panic-justification -- reason here
	panic("boom")
}
`)
		wantClean(t, fs)
	})
	t.Run("directive does not leak further down", func(t *testing.T) {
		fs := lintOne(t, "internal/x", `package x

func f(a int) {
	//lint:allow panic-justification -- reason here
	a++
	a++
	panic("boom")
}
`)
		wantFinding(t, fs, LintPanicJustification)
	})
}

// TestLintSelfModule lints the repo's own packages: the tree must stay clean
// so make check can treat any finding as a regression.
func TestLintSelfModule(t *testing.T) {
	dirs, err := ExpandDirs([]string{"../../internal/...", "../../cmd/..."})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(dirs) < 10 {
		t.Fatalf("expected to find the repo's packages, got %d dirs", len(dirs))
	}
	fs, err := LintDirs(dirs)
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, f := range fs {
		t.Errorf("%s", f)
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{File: "a.go", Line: 3, Rule: LintNoAllocInRun, Msg: "make allocates"}
	if got := f.String(); !strings.Contains(got, "a.go:3") || !strings.Contains(got, LintNoAllocInRun) {
		t.Errorf("String() = %q", got)
	}
}

func TestLintTracePropagation(t *testing.T) {
	const hdr = `package core
import (
	"context"
	"repro/internal/telemetry"
)
`
	t.Run("minting in a hook-disciplined dir is flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/core", hdr+`
func f(ctx context.Context) {
	ts := telemetry.NewTraceState(0, 0, 8)
	_ = telemetry.ContextWithTrace(ctx, ts)
}
`)
		var hits int
		for _, f := range fs {
			if f.Rule == LintTracePropagation {
				hits++
			}
		}
		if hits != 2 {
			t.Fatalf("want two trace-propagation findings (mint + attach), got %d in %v", hits, fs)
		}
	})
	t.Run("an Enabled guard does not legitimise minting", func(t *testing.T) {
		fs := lintOne(t, "internal/program", hdr+`
func f() {
	if telemetry.Enabled() {
		_ = telemetry.MintTraceID()
	}
}
`)
		wantFinding(t, fs, LintTracePropagation)
	})
	t.Run("adopting the ctx trace is the sanctioned pattern", func(t *testing.T) {
		fs := lintOne(t, "internal/core", hdr+`
func f(ctx context.Context) {
	sp := telemetry.StartSpanCtx(ctx, "a", "b", "c")
	prev := sp.MakeCurrent()
	sp.RestoreCurrent(prev)
	sp.End()
	_ = telemetry.TraceOf(ctx)
}
`)
		wantClean(t, fs)
	})
	t.Run("minting outside the audited dirs is fine", func(t *testing.T) {
		fs := lintOne(t, "internal/serve", hdr+`
func f() { _ = telemetry.NewTraceState(0, 0, 8) }
`)
		wantClean(t, fs)
	})
}

func TestLintGoroutineAccounting(t *testing.T) {
	t.Run("unaccounted go statement is flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/serve", `package serve
func f() {
	go func() {
		for {
		}
	}()
}
`)
		wantFinding(t, fs, LintGoroutineAccounting)
	})
	t.Run("waitgroup Add before the spawn is accounted", func(t *testing.T) {
		fs := lintOne(t, "internal/program", `package program
import "sync"
func f() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
`)
		wantClean(t, fs)
	})
	t.Run("literal body with deferred Done is accounted", func(t *testing.T) {
		fs := lintOne(t, "internal/serve", `package serve
import "sync"
type s struct{ wg sync.WaitGroup }
func (x *s) f() {
	go func() {
		defer x.wg.Done()
	}()
}
`)
		wantClean(t, fs)
	})
	t.Run("literal body closing a channel is accounted", func(t *testing.T) {
		fs := lintOne(t, "internal/serve", `package serve
func f(done chan struct{}) {
	go func() {
		close(done)
	}()
}
`)
		wantClean(t, fs)
	})
	t.Run("named spawn target resolved through the package index", func(t *testing.T) {
		fs := lintOne(t, "internal/serve", `package serve
type host struct{ done chan struct{} }
func (h *host) run() {
	defer close(h.done)
}
func (h *host) start() {
	go h.run()
}
`)
		wantClean(t, fs)
	})
	t.Run("named spawn target without a signal is flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/program", `package program
func worker() {
	for {
	}
}
func f() {
	go worker()
}
`)
		wantFinding(t, fs, LintGoroutineAccounting)
	})
	t.Run("allow directive suppresses with a reason", func(t *testing.T) {
		fs := lintOne(t, "internal/program", `package program
func worker() {}
func f() {
	//lint:allow goroutine-accounting -- process-lifetime pool worker
	go worker()
}
`)
		wantClean(t, fs)
	})
	t.Run("unscoped package is not audited", func(t *testing.T) {
		fs := lintOne(t, "internal/datasets", `package datasets
func f() {
	go func() {
		for {
		}
	}()
}
`)
		wantClean(t, fs)
	})
	t.Run("execution-path packages are audited", func(t *testing.T) {
		for _, dir := range []string{"internal/core", "internal/tensor", "internal/workpool"} {
			fs := lintOne(t, dir, `package p
func f() {
	go func() {
		for {
		}
	}()
}
`)
			wantFinding(t, fs, LintGoroutineAccounting)
		}
	})
}

func TestLintHostEngine(t *testing.T) {
	t.Run("the daemon importing the simulator is flagged", func(t *testing.T) {
		fs := lintOne(t, "internal/serve", `package serve
import (
	"repro/internal/gpu"
	"repro/internal/models"
)
func f() { _ = models.NewHostEngine(nil); _ = gpu.V100() }
`)
		wantFinding(t, fs, LintHostEngine)
	})
	t.Run("a tuned or predicted engine in the daemon is flagged", func(t *testing.T) {
		fs := lintOne(t, "cmd/ugrapher-serve", `package main
import "repro/internal/models"
func f() {
	_ = models.NewTunedEngine(nil)
	_ = models.NewPredictedEngine(nil, nil)
}
`)
		var hits int
		for _, f := range fs {
			if f.Rule == LintHostEngine {
				hits++
			}
		}
		if hits != 2 {
			t.Fatalf("want two host-engine findings, got %d in %v", hits, fs)
		}
	})
	t.Run("the host engine is the sanctioned constructor", func(t *testing.T) {
		fs := lintOne(t, "internal/serve", `package serve
import "repro/internal/models"
func f() { _ = models.NewHostEngine(nil) }
`)
		wantClean(t, fs)
	})
	t.Run("the simulator stays available everywhere else", func(t *testing.T) {
		fs := lintOne(t, "cmd/ugrapher-bench", `package main
import (
	"repro/internal/gpu"
	"repro/internal/models"
)
func f() { _ = models.NewTunedEngine(gpu.V100()) }
`)
		wantClean(t, fs)
	})
}

func TestLintSimulatedOnly(t *testing.T) {
	const src = `package p
import (
	"time"
	"repro/internal/gpu"
	"repro/internal/program"
	"repro/internal/shard"
	"repro/internal/workpool"
)
var _ = time.Now
`
	for _, dir := range []string{"internal/bench", "cmd/ugrapher-bench"} {
		var hits int
		for _, f := range lintOne(t, dir, src) {
			if f.Rule == LintSimulatedOnly {
				hits++
			}
		}
		if hits != 3 {
			t.Errorf("%s: want three simulated-only findings (program, shard, workpool), got %d", dir, hits)
		}
	}
	t.Run("the host runtime stays available everywhere else", func(t *testing.T) {
		wantClean(t, lintOne(t, "cmd/ugrapher", src))
	})
}

func TestLintHostScheduleFree(t *testing.T) {
	lintFile := func(t *testing.T, file, dir, src string) []Finding {
		t.Helper()
		fs, err := LintSource(file, src, dir)
		if err != nil {
			t.Fatalf("lint: %v", err)
		}
		return fs
	}
	const read = `package core
func (k *parallelKernel) pick() bool { return k.p.Schedule.Strategy.VertexParallel() }
`
	t.Run("a schedule read in a host lowering file is flagged once", func(t *testing.T) {
		wantFinding(t, lintFile(t, "backend_sharded.go", "internal/core", read), LintHostScheduleFree)
		wantFinding(t, lintFile(t, "rows.go", "internal/core", read), LintHostScheduleFree)
	})
	t.Run("telemetry labels may read the schedule", func(t *testing.T) {
		wantClean(t, lintFile(t, "backend_parallel.go", "internal/core", `package core
import "repro/internal/telemetry"
func site(p *Plan) {
	//lint:allow hook-discipline -- test fixture
	_ = telemetry.NewKernelSite(opLabel(p), p.Schedule.Strategy.Code(), p.Schedule.String(), "parallel", 0, 0)
	_ = kernelSite(p.Schedule, "parallel", nil)
}
`))
	})
	t.Run("the sim plan builders and other packages are out of scope", func(t *testing.T) {
		wantClean(t, lintFile(t, "kernel_thread.go", "internal/core", read))
		wantClean(t, lintFile(t, "backend_parallel.go", "internal/program", read))
	})
	t.Run("allow directive suppresses with a reason", func(t *testing.T) {
		wantClean(t, lintFile(t, "span.go", "internal/core", `package core
func f(p *Plan) bool {
	//lint:allow host-schedule-free -- test fixture
	return p.Schedule.Strategy.VertexParallel()
}
`))
	})
}
