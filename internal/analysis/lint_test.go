package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lintSource lints a single in-memory file as if it were the package in dir.
func lintSource(filename, src, dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	// The standard library and the module are stubbed: the member lookups
	// fail (the errors are discarded), but Uses still resolves package names
	// and builtins, which is all the per-file rules read.
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{
		Importer:                 &stubImporter{pkgs: make(map[string]*types.Package)},
		Error:                    func(error) {},
		DisableUnusedImportCheck: true,
	}
	_, _ = conf.Check(dir, fset, []*ast.File{f}, info)
	return lintFiles(fset, []*ast.File{f}, dir, info), nil
}

// lintOne lints src as a single file in dir and returns the findings.
func lintOne(t *testing.T, dir, src string) []Finding {
	t.Helper()
	fs, err := lintSource("test.go", src, dir)
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

// unreadFixture is a module whose package internal/x has one declaration of
// every kind the unread rule must flag or must leave alone, read from a
// sibling package, an example and a nested benchmark module.
var unreadFixture = map[string]string{
	"go.mod": "module fixture\n\ngo 1.22\n",
	"internal/x/x.go": `package x

import "container/heap"

// OnlyTests is read by x_test.go alone.
func OnlyTests() int { return 1 }

func CrossPackage() int    { return 2 }
func ReadByExample() int   { return 3 }
func ReadByBenchmark() int { return 4 }

func recursive(n int) int {
	if n == 0 {
		return 0
	}
	return recursive(n - 1)
}

type Runner interface{ Run() int }

type impl struct{}

func (impl) Run() int     { return 5 }
func (impl) Workers() int { return 6 }
func (impl) Bound() int   { return 7 }

type queue []int

func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(v any)        { *q = append(*q, v.(int)) }
func (q *queue) Pop() any {
	old := *q
	*q = old[:len(old)-1]
	return old[len(old)-1]
}

func Use(r Runner) int {
	var v any = impl{}
	if w, ok := v.(interface{ Workers() int }); ok {
		_ = w
	}
	heap.Init(&queue{3, 1})
	bound := impl{}.Bound
	return bound()
}

//lint:allow unread -- read by the fixture's own reason
func Allowed() {}

//lint:allow unread
func NoReason() {}
`,
	"internal/x/x_test.go": `package x

import "testing"

func TestOnly(t *testing.T) { _ = OnlyTests() }
`,
	"internal/y/y.go": `package y

import "fixture/internal/x"

var _ = x.Use(nil) + x.CrossPackage()
`,
	"examples/e/main.go": `package main

import "fixture/internal/x"

func unreadInAnExample() {}

func main() { _ = x.ReadByExample() }
`,
	"benchmark/go.mod": "module fixture/benchmark\n\ngo 1.22\n\nrequire fixture v0.0.0\n\nreplace fixture => ../\n",
	"benchmark/main.go": `package main

import "fixture/internal/x"

func main() { _ = x.ReadByBenchmark() }
`,
}

func TestLintUnread(t *testing.T) {
	root := t.TempDir()
	for name, src := range unreadFixture {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var dirs []string
	for _, d := range []string{"internal/x", "internal/y", "examples/e", "benchmark"} {
		dirs = append(dirs, filepath.Join(root, d))
	}
	fs, err := LintDirs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	unread := map[string]bool{}
	directives := 0
	for _, f := range fs {
		switch f.Rule {
		case LintUnread:
			name, _, _ := strings.Cut(f.Msg, " ")
			unread[name] = true
		case LintDirective:
			directives++
		default:
			t.Errorf("unexpected finding %s", f)
		}
	}
	for _, c := range []struct {
		name, decl string
		flagged    bool
	}{
		{"an exported function read only by a _test.go", "x.OnlyTests", true},
		{"a function read only from its own body", "x.recursive", true},
		{"a reasonless directive suppresses nothing", "x.NoReason", true},
		{"a function read from another package", "x.CrossPackage", false},
		{"a function read only from an example", "x.ReadByExample", false},
		{"a function read only from the benchmark module", "x.ReadByBenchmark", false},
		{"a method that satisfies a named interface", "(x.impl).Run", false},
		{"a method that satisfies an anonymous interface in a type assertion", "(x.impl).Workers", false},
		{"heap.Interface's methods", "(x.queue).Push", false},
		{"a method value", "(x.impl).Bound", false},
		{"a directive with a reason", "x.Allowed", false},
		{"examples are readers, not reported", "e.unreadInAnExample", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if unread[c.decl] != c.flagged {
				t.Errorf("%s flagged = %v, want %v (all unread findings: %v)", c.decl, unread[c.decl], c.flagged, unread)
			}
		})
	}
	if len(unread) != 3 {
		t.Errorf("want exactly 3 unread findings, got %v", unread)
	}
	if directives != 1 {
		t.Errorf("want one lint-directive finding for the reasonless directive, got %d", directives)
	}
}

// TestLintDirsRejectsUnknownDirs: a target that is not a package of the
// module is an error, never a silent "0 findings" — a directory that does not
// exist, one the module walk skips (testdata), and one in another module.
func TestLintDirsRejectsUnknownDirs(t *testing.T) {
	root, other := t.TempDir(), t.TempDir()
	for path, src := range map[string]string{
		filepath.Join(root, "go.mod"):                   "module fixture\n\ngo 1.22\n",
		filepath.Join(root, "internal/x/x.go"):          "package x\n",
		filepath.Join(root, "internal/x/testdata/t.go"): "package t\n",
		filepath.Join(other, "go.mod"):                  "module other\n\ngo 1.22\n",
		filepath.Join(other, "internal/y/y.go"):         "package y\n",
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	x := filepath.Join(root, "internal/x")
	if _, err := LintDirs([]string{x}); err != nil {
		t.Fatalf("a package of the module: %v", err)
	}
	for _, c := range []struct{ name, dir string }{
		{"a directory that does not exist", filepath.Join(root, "internal/missing")},
		{"a testdata directory", filepath.Join(x, "testdata")},
		{"a package of another module", filepath.Join(other, "internal/y")},
	} {
		t.Run(c.name, func(t *testing.T) {
			if _, err := LintDirs([]string{x, c.dir}); err == nil {
				t.Errorf("LintDirs accepted %s", c.dir)
			}
		})
	}
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
		for _, dir := range []string{"internal/core", "internal/tensor", "internal/workpool", "internal/gpu", "internal/schedule"} {
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
	t.Run("a tuned engine in the daemon is flagged", func(t *testing.T) {
		fs := lintOne(t, "cmd/ugrapher-serve", `package main
import "repro/internal/models"
func f() { _ = models.NewTunedEngine(nil) }
`)
		wantFinding(t, fs, LintHostEngine)
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
	for _, dir := range []string{"internal/bench", "cmd/ugrapher-bench", "internal/schedule", "internal/gpu"} {
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
		fs, err := lintSource(file, src, dir)
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
	_ = telemetry.NewKernelSite(opLabel(p), p.Schedule.Strategy.Code(), p.Schedule.String(), "parallel", 0)
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
