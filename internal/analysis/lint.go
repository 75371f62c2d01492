package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// The source linter: a stdlib go/ast + go/types checker that mechanically
// enforces the repo invariants DESIGN.md states in prose. The rules:
//
//   - hook-discipline: internal/core and internal/program may call into
//     telemetry/faultinject only through functions that are themselves a
//     single armed-bit load when disabled, or under an explicit
//     Enabled()/Armed() guard. Anything else would put work on the
//     disabled hot path.
//   - panic-justification: every panic() in non-test code must carry an
//     adjacent comment containing the word "invariant" explaining why the
//     condition is a bug, not an input (reachable conditions must be
//     errors).
//   - no-alloc-in-run: Run/RunCtx/RunRows bodies of kernel types, and the per-row
//     and per-edge inner loops they call (span* functions, methods of the
//     span operand / row reducer / edge writer types), the packed GEMM, plain
//     and accumulating (internal/tensor's [gG]emmPacked* functions), the
//     elementwise operators a dense chunk runs (tensor.ReLU, LeakyReLU,
//     AddScaledInto) and every function of the vector-kernel package
//     internal/vec — the Go wrappers around its assembly — must not
//     lexically allocate (make/new/append, non-deferred closures) — the
//     zero-steady-state contract TestCompiledRunZeroAllocs asserts.
//   - trace-propagation: internal/core and internal/program adopt the
//     request trace from ctx (StartSpanCtx, EndCtx) but never mint or
//     attach one — NewTraceState/ContextWithTrace/MintTraceID belong to
//     the admission layer (DESIGN.md §8); a layer that mints breaks the
//     one-tree-per-request invariant and allocates on the hot path.
//   - goroutine-accounting: every `go` statement in internal/serve and on
//     the execution path (internal/program, internal/core, internal/tensor
//     and the worker pool itself, internal/workpool) must be visibly
//     tracked — a WaitGroup Add before the spawn, a body that signals
//     completion via a deferred Done() or by closing a channel — or carry
//     an explicit allow directive. An unaccounted goroutine is a leak the
//     drain/cancellation machinery cannot see; on the execution path the
//     only justified spawn is the pool's spawn-once helper.
//   - host-engine: the serving daemon (internal/serve, cmd/ugrapher-serve)
//     compiles with fixed host schedules (models.NewHostEngine). It may not
//     import the GPU simulator, the schedule tuner or the predictor, nor
//     build a tuned or predicted engine: a grid search at daemon start buys
//     nothing the host kernels read (DESIGN.md §5).
//   - simulated-only: the paper side (internal/bench, cmd/ugrapher-bench)
//     reports simulated cycles and nothing else. It may not import the
//     compiled-program runtime, the shard layer or the worker pool: an
//     experiment that executes a model on the host is a wall-clock
//     measurement, and those belong to benchmark/ alone.
//   - host-schedule-free: the host lowering files of internal/core
//     (backend_parallel.go, backend_sharded.go, span.go, kernels_host.go)
//     read no bit of a plan's GPU schedule: a .Schedule or .Strategy
//     selector there is a finding unless it labels telemetry (an argument
//     of telemetry.NewKernelSite or kernelSite). Every reduction walks
//     destination rows with one owner per row whatever strategy the plan
//     names; a schedule read would be a second code path nobody measured.
//
// Exemptions are explicit: `//lint:allow <rule> -- <reason>` on the
// offending line or the line above. A directive without a reason is itself
// a finding, so every suppression is justified in place.

// Lint rule identifiers.
const (
	LintHookDiscipline      = "hook-discipline"
	LintPanicJustification  = "panic-justification"
	LintNoAllocInRun        = "no-alloc-in-run"
	LintTracePropagation    = "trace-propagation"
	LintGoroutineAccounting = "goroutine-accounting"
	LintHostEngine          = "host-engine"
	LintSimulatedOnly       = "simulated-only"
	LintHostScheduleFree    = "host-schedule-free"
	LintDirective           = "lint-directive"
)

// LintRules lists the linter's rules.
var LintRules = []string{LintHookDiscipline, LintPanicJustification, LintNoAllocInRun, LintTracePropagation, LintGoroutineAccounting, LintHostEngine, LintSimulatedOnly, LintHostScheduleFree, LintDirective}

// Finding is one linter hit.
type Finding struct {
	// File and Line locate the finding.
	File string
	Line int
	// Rule is the violated rule id.
	Rule string
	// Msg states the violation and the fix.
	Msg string
}

// String renders "file:line: rule: msg".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.File, f.Line, f.Rule, f.Msg)
}

// hookPackages are the packages whose call sites hook-discipline audits,
// mapping import path to the functions that are safe to call unguarded
// (each is a single atomic load while disabled).
var hookPackages = map[string]map[string]bool{
	"repro/internal/telemetry": {
		"Enabled":              true,
		"StartSpan":            true,
		"StartSpanCtx":         true,
		"StartTraceSpan":       true,
		"TraceOf":              true,
		"RecordSpan":           true,
		"FlowLink":             true,
		"RecordScheduleChoice": true,
		"CountProgramRun":      true,
		"CountTrainerEpoch":    true,
	},
	"repro/internal/faultinject": {
		"Enabled":    true,
		"Armed":      true,
		"Fire":       true,
		"Fires":      true,
		"Calls":      true,
		"SpecOf":     true,
		"MaybePanic": true,
		"MaybeSleep": true,
		"ErrIf":      true,
	},
}

// hookDisciplinedDirs are the package directories (by path suffix) whose
// hot paths the hook-discipline rule protects.
var hookDisciplinedDirs = []string{"internal/core", "internal/program"}

// goroutineScopedDirs are the package directories (by path suffix) whose go
// statements the goroutine-accounting rule audits.
var goroutineScopedDirs = []string{"internal/serve", "internal/program", "internal/core", "internal/tensor", "internal/workpool"}

// The host-engine rule: the directories (by path suffix) that must stay off
// the simulator and the repro/internal/models constructors that run it.
var (
	hostEngineDirs   = []string{"internal/serve", "cmd/ugrapher-serve"}
	simulatorEngines = map[string]bool{"NewTunedEngine": true, "NewPredictedEngine": true}
)

// importBoundaries are the two halves of the tree that must not link each
// other: per rule, the directories (by path suffix) it scopes, the imports
// they may not have, and the finding's text (%s = the import path). "time" is
// not fenced on the paper side: fig12's prediction-latency note and the CLI's
// -timeout are legitimate uses.
var importBoundaries = []struct {
	rule    string
	dirs    []string
	imports map[string]bool
	msg     string
}{
	{LintHostEngine, hostEngineDirs,
		map[string]bool{"repro/internal/gpu": true, "repro/internal/schedule": true, "repro/internal/predictor": true},
		"the serving daemon imports %s; it compiles with models.NewHostEngine and stays off the GPU simulator"},
	{LintSimulatedOnly, []string{"internal/bench", "cmd/ugrapher-bench"},
		map[string]bool{"repro/internal/program": true, "repro/internal/shard": true, "repro/internal/workpool": true},
		"the paper side imports %s; its tables are simulated cycles only — host wall clock is measured by benchmark/"},
}

// The host-schedule-free rule: the package directory (by path suffix) and
// the files in it that lower plans for the host, the selector names that read
// a plan's GPU schedule, and the calls whose arguments may (telemetry labels).
var (
	hostLoweringDir   = "internal/core"
	hostLoweringFiles = map[string]bool{"backend_parallel.go": true, "backend_sharded.go": true, "span.go": true, "kernels_host.go": true, "region_rows.go": true, "rows.go": true}
	scheduleSelectors = map[string]bool{"Schedule": true, "Strategy": true}
	scheduleLabelers  = map[string]bool{"NewKernelSite": true, "kernelSite": true}
)

// traceMintFuncs are the telemetry functions that create or attach a trace
// context. Only the admission layer (internal/serve) may call them; the
// hook-disciplined execution layers adopt the trace from ctx instead.
var traceMintFuncs = map[string]bool{
	"NewTraceState":    true,
	"ContextWithTrace": true,
	"MintTraceID":      true,
}

// kernelReceiver matches the receiver type names whose Run/RunCtx/RunRows
// methods the no-alloc rule audits.
var kernelReceiver = regexp.MustCompile(`(?i)kernel$`)

// spanFunc and spanReceiver match the host lowering's inner loops
// (internal/core/span.go), which run once per destination row or edge chunk
// under every kernel's Run and fall under the same no-alloc rule.
var (
	spanFunc     = regexp.MustCompile(`^span[A-Z]`)
	spanReceiver = regexp.MustCompile(`^(span[A-Z]\w*|rowReducer|edgeWriter)$`)
)

// The dense step's inner loops and the vector kernels under them and under
// the span kernels run on the same zero-alloc path: the packed-GEMM functions
// and the elementwise dispatchers of internal/tensor by name, and
// internal/vec — whose every function is a wrapper around an assembly
// kernel, or called by one per row — wholesale.
var (
	gemmFunc       = regexp.MustCompile(`^([gG]emmPacked|(ReLU|LeakyReLU|AddScaledInto|negMask)$)`)
	gemmScopedDir  = "internal/tensor"
	noAllocPkgDirs = []string{"internal/vec"}
)

// allowDirective parses `//lint:allow <rule> -- <reason>`.
var allowDirective = regexp.MustCompile(`^//lint:allow\s+([a-z-]+)\s*(?:--\s*(.*))?$`)

// ExpandDirs resolves lint targets: a plain path names one package
// directory; a path ending in /... walks for every directory containing
// non-test .go files. Vendor, testdata and hidden directories are skipped.
func ExpandDirs(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := pat, false
		if strings.HasSuffix(pat, "/...") {
			root, recursive = strings.TrimSuffix(pat, "/..."), true
		}
		if !recursive {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "vendor" || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// hasGoFiles reports whether dir directly contains a non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LintDirs lints every directory as one package and returns all findings,
// sorted by file and line.
func LintDirs(dirs []string) ([]Finding, error) {
	var all []Finding
	for _, d := range dirs {
		fs, err := LintDir(d)
		if err != nil {
			return nil, err
		}
		all = append(all, fs...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		return all[i].Line < all[j].Line
	})
	return all, nil
}

// LintDir parses the non-test .go files of one package directory and lints
// them.
func LintDir(dir string) ([]Finding, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return lintFiles(fset, files, dir), nil
}

// LintSource lints a single in-memory file (test hook).
func LintSource(filename, src, dir string) ([]Finding, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	return lintFiles(fset, []*ast.File{f}, dir), nil
}

// stubImporter satisfies go/types imports with empty marker packages: the
// member lookups fail (and are ignored), but qualified identifiers still
// resolve to *types.PkgName carrying the real import path, and builtins
// like panic/make/append resolve shadow-safely.
type stubImporter struct{ pkgs map[string]*types.Package }

func (im *stubImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	name := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		name = path[i+1:]
	}
	p := types.NewPackage(path, name)
	p.MarkComplete()
	im.pkgs[path] = p
	return p, nil
}

// lintFiles runs every rule over one package's files.
func lintFiles(fset *token.FileSet, files []*ast.File, dir string) []Finding {
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{
		Importer:                 &stubImporter{pkgs: make(map[string]*types.Package)},
		Error:                    func(error) {}, // stub imports cannot fully typecheck
		DisableUnusedImportCheck: true,
	}
	// The (expected) errors from stub-package member lookups are discarded;
	// Uses is still populated for package names and builtins.
	_, _ = conf.Check(dir, fset, files, info)

	cleanDir := filepath.ToSlash(filepath.Clean(dir))
	inDirs := func(suffixes []string) bool {
		for _, suffix := range suffixes {
			if strings.HasSuffix(cleanDir, suffix) {
				return true
			}
		}
		return false
	}
	hookScoped, goScoped := inDirs(hookDisciplinedDirs), inDirs(goroutineScopedDirs)
	noAllocPkg, hostScoped := inDirs(noAllocPkgDirs), inDirs(hostEngineDirs)
	gemmScoped := strings.HasSuffix(cleanDir, gemmScopedDir)
	hostLowering := strings.HasSuffix(cleanDir, hostLoweringDir)

	// Cross-file function index, so a `go f()` / `go h.run()` spawn can be
	// checked against its target's body wherever in the package it lives.
	pkgFuncs := make(map[string]*ast.FuncDecl)
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				pkgFuncs[fd.Name.Name] = fd
			}
		}
	}

	var findings []Finding
	for _, f := range files {
		lf := &fileLinter{fset: fset, file: f, info: info, hookScoped: hookScoped, goScoped: goScoped,
			noAllocPkg: noAllocPkg, gemmScoped: gemmScoped, hostScoped: hostScoped, pkgFuncs: pkgFuncs,
			scheduleFree: hostLowering && hostLoweringFiles[filepath.Base(fset.Position(f.Pos()).Filename)]}
		lf.collectComments()
		lf.checkImportBoundaries(inDirs)
		lf.run()
		findings = append(findings, lf.findings...)
	}
	return findings
}

// fileLinter holds per-file lint state.
type fileLinter struct {
	fset       *token.FileSet
	file       *ast.File
	info       *types.Info
	hookScoped bool
	goScoped   bool
	// noAllocPkg marks a package whose every function is on the zero-alloc
	// path (internal/vec); gemmScoped one whose gemmPacked* functions are.
	noAllocPkg bool
	gemmScoped bool
	// hostScoped marks the serving daemon's packages (host-engine rule).
	hostScoped bool
	// scheduleFree marks a host lowering file (host-schedule-free rule).
	scheduleFree bool
	// pkgFuncs indexes the package's function/method declarations by name
	// (all files), for resolving `go f()` spawn targets.
	pkgFuncs map[string]*ast.FuncDecl

	// allow maps "line:rule" to true for every //lint:allow directive
	// (covering the directive's own line and the next).
	allow map[string]bool
	// comments maps each line to the comment text ending on it.
	comments map[int]string
	findings []Finding
}

func (lf *fileLinter) posLine(p token.Pos) int { return lf.fset.Position(p).Line }

func (lf *fileLinter) report(p token.Pos, rule, msg string) {
	pos := lf.fset.Position(p)
	if lf.allow[fmt.Sprintf("%d:%s", pos.Line, rule)] {
		return
	}
	lf.findings = append(lf.findings, Finding{File: pos.Filename, Line: pos.Line, Rule: rule, Msg: msg})
}

// collectComments indexes comment lines and //lint:allow directives.
func (lf *fileLinter) collectComments() {
	lf.allow = make(map[string]bool)
	lf.comments = make(map[int]string)
	for _, cg := range lf.file.Comments {
		for _, c := range cg.List {
			line := lf.posLine(c.End())
			lf.comments[line] = c.Text
			m := allowDirective.FindStringSubmatch(strings.TrimSpace(c.Text))
			if m == nil {
				continue
			}
			rule, reason := m[1], strings.TrimSpace(m[2])
			if reason == "" {
				lf.findings = append(lf.findings, Finding{
					File: lf.fset.Position(c.Pos()).Filename, Line: lf.posLine(c.Pos()),
					Rule: LintDirective,
					Msg:  fmt.Sprintf("lint:allow %s needs a reason: write `//lint:allow %s -- <why>`", rule, rule),
				})
				continue
			}
			lf.allow[fmt.Sprintf("%d:%s", line, rule)] = true
			lf.allow[fmt.Sprintf("%d:%s", line+1, rule)] = true
		}
	}
}

// run walks the file with an explicit ancestor path.
func (lf *fileLinter) run() {
	var path []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		path = append(path, n)
		lf.checkNode(n, path)
		ast.Inspect(n, func(child ast.Node) bool {
			if child == nil || child == n {
				return child == n
			}
			walk(child)
			return false
		})
		path = path[:len(path)-1]
	}
	walk(lf.file)
}

// checkNode dispatches the per-node rules.
func (lf *fileLinter) checkNode(n ast.Node, path []ast.Node) {
	switch node := n.(type) {
	case *ast.CallExpr:
		lf.checkHookCall(node, path)
		lf.checkTraceMint(node)
		lf.checkSimulatorEngine(node)
		lf.checkPanic(node, path)
	case *ast.SelectorExpr:
		lf.checkScheduleRead(node, path)
	case *ast.FuncDecl:
		lf.checkRunBody(node)
	case *ast.GoStmt:
		lf.checkGoroutine(node, path)
	}
}

// checkGoroutine enforces goroutine-accounting: a go statement in a scoped
// package must be visibly tracked.
func (lf *fileLinter) checkGoroutine(g *ast.GoStmt, path []ast.Node) {
	if !lf.goScoped || lf.goAccounted(g, path) {
		return
	}
	lf.report(g.Pos(), LintGoroutineAccounting,
		"unaccounted goroutine: track it with a WaitGroup (Add before the spawn, deferred Done inside), signal completion by closing a channel, or justify with `//lint:allow goroutine-accounting -- <why>`")
}

// goAccounted reports whether the spawned goroutine is visibly tracked:
// the enclosing function claims it on a WaitGroup (an Add call before the
// spawn), or the spawned body — a function literal, or a same-package
// function/method resolved through pkgFuncs — signals completion via a
// deferred Done() or by closing a channel.
func (lf *fileLinter) goAccounted(g *ast.GoStmt, path []ast.Node) bool {
	for _, anc := range path {
		fd, ok := anc.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		claimed := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && call.Pos() < g.Pos() {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Add" {
					claimed = true
				}
			}
			return !claimed
		})
		if claimed {
			return true
		}
	}
	var body *ast.BlockStmt
	switch fun := g.Call.Fun.(type) {
	case *ast.FuncLit:
		body = fun.Body
	case *ast.Ident:
		if fd := lf.pkgFuncs[fun.Name]; fd != nil {
			body = fd.Body
		}
	case *ast.SelectorExpr:
		if fd := lf.pkgFuncs[fun.Sel.Name]; fd != nil {
			body = fd.Body
		}
	}
	if body == nil {
		return false
	}
	signalled := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.DeferStmt:
			if sel, ok := node.Call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				signalled = true
			}
		case *ast.CallExpr:
			if id, ok := node.Fun.(*ast.Ident); ok && lf.isBuiltin(id, "close") {
				signalled = true
			}
		}
		return !signalled
	})
	return signalled
}

// pkgPathOf resolves a selector qualifier to its import path, or "".
func (lf *fileLinter) pkgPathOf(id *ast.Ident) string {
	if obj, ok := lf.info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
		return "" // resolved to a non-package object (shadowed)
	}
	// Fallback when typechecking failed: match the file's import names.
	for _, imp := range lf.file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := p
		if i := strings.LastIndex(p, "/"); i >= 0 {
			name = p[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return p
		}
	}
	return ""
}

// isBuiltin reports whether id resolves to the named builtin.
func (lf *fileLinter) isBuiltin(id *ast.Ident, name string) bool {
	if id.Name != name {
		return false
	}
	if obj, ok := lf.info.Uses[id]; ok {
		_, builtin := obj.(*types.Builtin)
		return builtin
	}
	return true // unresolved: assume the builtin
}

// checkHookCall enforces hook-discipline on qualified calls into the
// telemetry/faultinject packages.
func (lf *fileLinter) checkHookCall(call *ast.CallExpr, path []ast.Node) {
	if !lf.hookScoped {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	pkgPath := lf.pkgPathOf(qual)
	guarded, audited := hookPackages[pkgPath]
	if !audited {
		return
	}
	if guarded[sel.Sel.Name] {
		return
	}
	if lf.underEnabledGuard(call, path) {
		return
	}
	lf.report(call.Pos(), LintHookDiscipline,
		fmt.Sprintf("%s.%s is not disarmed by a single atomic load; guard it with `if %s.Enabled()` or use a self-guarded hook",
			qual.Name, sel.Sel.Name, qual.Name))
}

// checkTraceMint enforces trace-propagation: the hook-disciplined layers
// never mint or attach a trace context, guarded or not — an Enabled() guard
// does not make minting legitimate, it only hides the broken tree.
func (lf *fileLinter) checkTraceMint(call *ast.CallExpr) {
	if !lf.hookScoped {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	if lf.pkgPathOf(qual) != "repro/internal/telemetry" || !traceMintFuncs[sel.Sel.Name] {
		return
	}
	lf.report(call.Pos(), LintTracePropagation,
		fmt.Sprintf("%s.%s mints/attaches a trace context inside a hook-disciplined layer; adopt the request trace from ctx (StartSpanCtx, EndCtx) — traces are minted at admission only",
			qual.Name, sel.Sel.Name))
}

// checkImportBoundaries enforces host-engine and simulated-only on a file's
// import list; inDirs reports whether the package directory ends in one of
// the given suffixes.
func (lf *fileLinter) checkImportBoundaries(inDirs func(suffixes []string) bool) {
	for _, b := range importBoundaries {
		if !inDirs(b.dirs) {
			continue
		}
		for _, imp := range lf.file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil && b.imports[p] {
				lf.report(imp.Pos(), b.rule, fmt.Sprintf(b.msg, p))
			}
		}
	}
}

// checkSimulatorEngine enforces host-engine on calls that build an engine
// whose schedules come from the simulator.
func (lf *fileLinter) checkSimulatorEngine(call *ast.CallExpr) {
	if !lf.hostScoped {
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok || !simulatorEngines[sel.Sel.Name] || lf.pkgPathOf(qual) != "repro/internal/models" {
		return
	}
	lf.report(call.Pos(), LintHostEngine,
		fmt.Sprintf("%s.%s runs a simulator schedule search in the serving daemon; use %s.NewHostEngine", qual.Name, sel.Sel.Name, qual.Name))
}

// checkScheduleRead enforces host-schedule-free: in a host lowering file a
// .Schedule/.Strategy selector (the outermost of a chain, so p.Schedule.Strategy
// is one finding) must sit inside a telemetry-labelling call.
func (lf *fileLinter) checkScheduleRead(sel *ast.SelectorExpr, path []ast.Node) {
	if !lf.scheduleFree || !scheduleSelectors[sel.Sel.Name] {
		return
	}
	if parent, ok := path[len(path)-2].(*ast.SelectorExpr); ok && scheduleSelectors[parent.Sel.Name] {
		return // reported at the chain's outermost selector
	}
	for _, anc := range path {
		call, ok := anc.(*ast.CallExpr)
		if !ok {
			continue
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			ok = scheduleLabelers[fun.Name]
		case *ast.SelectorExpr:
			ok = scheduleLabelers[fun.Sel.Name]
		default:
			ok = false
		}
		if ok {
			return
		}
	}
	lf.report(sel.Pos(), LintHostScheduleFree,
		fmt.Sprintf("the host lowering reads a plan's .%s; every host kernel runs the same walk whatever GPU schedule the plan names — only telemetry labels may read it", sel.Sel.Name))
}

// isGuardCall reports whether e is a call to pkg.Enabled() or pkg.Armed(..)
// for an audited hook package.
func (lf *fileLinter) isGuardCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	qual, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if _, audited := hookPackages[lf.pkgPathOf(qual)]; !audited {
		return false
	}
	return sel.Sel.Name == "Enabled" || sel.Sel.Name == "Armed"
}

// underEnabledGuard reports whether the call site is dominated by an
// armed-bit guard: inside `if pkg.Enabled() { ... }` (positive form), or
// preceded in its block by `if !pkg.Enabled() { return ... }` (early-exit
// form).
func (lf *fileLinter) underEnabledGuard(call *ast.CallExpr, path []ast.Node) bool {
	for i := len(path) - 1; i >= 0; i-- {
		ifStmt, ok := path[i].(*ast.IfStmt)
		if ok && lf.isGuardCall(ifStmt.Cond) && i+1 < len(path) && path[i+1] == ifStmt.Body {
			return true
		}
		block, ok := path[i].(*ast.BlockStmt)
		if !ok {
			continue
		}
		// Which child of the block contains the call?
		var idx = -1
		if i+1 < len(path) {
			for j, st := range block.List {
				if st == path[i+1] {
					idx = j
					break
				}
			}
		}
		for j := 0; j < idx; j++ {
			prior, ok := block.List[j].(*ast.IfStmt)
			if !ok {
				continue
			}
			neg, ok := prior.Cond.(*ast.UnaryExpr)
			if !ok || neg.Op != token.NOT || !lf.isGuardCall(neg.X) {
				continue
			}
			if len(prior.Body.List) > 0 {
				if _, ret := prior.Body.List[len(prior.Body.List)-1].(*ast.ReturnStmt); ret {
					return true
				}
			}
		}
	}
	return false
}

// checkPanic enforces panic-justification: the call must have a comment
// containing "invariant" within the eight preceding lines (or on its own
// line), or an enclosing function whose doc comment states the invariant.
func (lf *fileLinter) checkPanic(call *ast.CallExpr, path []ast.Node) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || !lf.isBuiltin(id, "panic") {
		return
	}
	line := lf.posLine(call.Pos())
	for l := line - 8; l <= line; l++ {
		if c, ok := lf.comments[l]; ok && strings.Contains(strings.ToLower(c), "invariant") {
			return
		}
	}
	for _, anc := range path {
		fd, ok := anc.(*ast.FuncDecl)
		if ok && fd.Doc != nil && strings.Contains(strings.ToLower(fd.Doc.Text()), "invariant") {
			return
		}
	}
	lf.report(call.Pos(), LintPanicJustification,
		"panic without an adjacent `// invariant:` comment; justify why this is unreachable from input, or return an error")
}

// checkRunBody enforces no-alloc-in-run over Run/RunCtx/RunRows methods of
// kernel types and over the span inner loops: no make/new/append and no closures
// outside direct defer/go statements, lexically, in the body (other callees
// are covered by the runtime zero-alloc test).
func (lf *fileLinter) checkRunBody(fd *ast.FuncDecl) {
	if fd.Body == nil {
		return
	}
	recv := ""
	switch {
	case lf.noAllocPkg:
		if fd.Recv != nil {
			recv = receiverTypeName(fd.Recv) + "."
		}
	case fd.Recv == nil:
		if !spanFunc.MatchString(fd.Name.Name) && !(lf.gemmScoped && gemmFunc.MatchString(fd.Name.Name)) {
			return
		}
	default:
		recv = receiverTypeName(fd.Recv)
		run := fd.Name.Name == "Run" || fd.Name.Name == "RunCtx" || fd.Name.Name == "RunRows"
		if !(run && kernelReceiver.MatchString(recv)) && !spanReceiver.MatchString(recv) {
			return
		}
		recv += "."
	}
	var path []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		if n == nil {
			return
		}
		path = append(path, n)
		switch node := n.(type) {
		case *ast.CallExpr:
			if id, ok := node.Fun.(*ast.Ident); ok {
				for _, b := range [...]string{"make", "new", "append"} {
					if lf.isBuiltin(id, b) {
						lf.report(node.Pos(), LintNoAllocInRun,
							fmt.Sprintf("%s in %s%s allocates on the hot path; hoist it to Lower time", b, recv, fd.Name.Name))
					}
				}
			}
		case *ast.FuncLit:
			if !directDeferOrGo(path) {
				lf.report(node.Pos(), LintNoAllocInRun,
					fmt.Sprintf("closure in %s%s may capture and allocate per call; bind it at Lower time", recv, fd.Name.Name))
			}
		}
		ast.Inspect(n, func(child ast.Node) bool {
			if child == nil || child == n {
				return child == n
			}
			walk(child)
			return false
		})
		path = path[:len(path)-1]
	}
	walk(fd.Body)
}

// directDeferOrGo reports whether the path ends [... DeferStmt/GoStmt,
// CallExpr, FuncLit]: a function literal invoked directly by defer or go,
// which the compiler open-codes without a heap closure.
func directDeferOrGo(path []ast.Node) bool {
	n := len(path)
	if n < 3 {
		return false
	}
	call, ok := path[n-2].(*ast.CallExpr)
	if !ok || call.Fun != path[n-1] {
		return false
	}
	switch parent := path[n-3].(type) {
	case *ast.DeferStmt:
		return parent.Call == call
	case *ast.GoStmt:
		return parent.Call == call
	}
	return false
}

// receiverTypeName extracts the receiver's base type name.
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
