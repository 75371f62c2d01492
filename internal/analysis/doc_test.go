package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDesignRuleTableMatchesRuleLists: DESIGN.md §9 has two rule tables.
// The rule-id column of the verifier table names exactly the rules the
// verifiers check — the union of the lists `ugrapher-lint -rules` prints for
// them — and that of the source-linter table exactly LintRules, so a rule
// added, renamed or dropped in one place without the other fails here.
func TestDesignRuleTableMatchesRuleLists(t *testing.T) {
	raw, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatalf("read DESIGN.md: %v", err)
	}
	_, sec, ok := strings.Cut(string(raw), "\n## 9. ")
	if !ok {
		t.Fatal("DESIGN.md has no section 9")
	}
	if end := strings.Index(sec, "\n## "); end >= 0 {
		sec = sec[:end]
	}
	verifierSec, sourceSec, ok := strings.Cut(sec, "**Source linter.**")
	if !ok {
		t.Fatal("DESIGN.md §9 has no **Source linter.** paragraph")
	}
	var verifierRules []string
	for _, list := range [][]string{ProgramRules, PlanRules, WaveRules, RowRules, {RuleShardNoAlias}} {
		for _, id := range list {
			if !slices.Contains(verifierRules, id) {
				verifierRules = append(verifierRules, id)
			}
		}
	}
	checkRuleTable(t, "verifier", verifierSec, verifierRules)
	checkRuleTable(t, "source-linter", sourceSec, LintRules)
}

// checkRuleTable compares the rule ids of a table's rows — a row opens with
// its id in backticks: | `rule-id` | ... — with the rules that run.
func checkRuleTable(t *testing.T, table, sec string, checked []string) {
	t.Helper()
	var documented []string
	for _, line := range strings.Split(sec, "\n") {
		cell, ok := strings.CutPrefix(line, "| `")
		if !ok {
			continue
		}
		id, _, ok := strings.Cut(cell, "`")
		if !ok {
			t.Fatalf("unterminated rule id in %q", line)
		}
		documented = append(documented, id)
	}
	for _, id := range checked {
		if !slices.Contains(documented, id) {
			t.Errorf("rule %q is checked but missing from DESIGN.md §9's %s table", id, table)
		}
	}
	seen := map[string]bool{}
	for _, id := range documented {
		if seen[id] {
			t.Errorf("DESIGN.md §9's %s table lists rule %q twice", table, id)
		}
		seen[id] = true
		if !slices.Contains(checked, id) {
			t.Errorf("DESIGN.md §9's %s table lists %q, which no check runs", table, id)
		}
	}
}

// cliTools are the commands whose documented flags TestDocumentedCLIFlagsExist
// checks; ugrapher-serve's are checked against its -h by internal/serve's
// end-to-end tests.
var cliTools = []string{"ugrapher", "ugrapher-bench", "ugrapher-train", "ugrapher-lint"}

var (
	// codeSpanRe matches an inline code span of a markdown line.
	codeSpanRe = regexp.MustCompile("`([^`]+)`")
	// toolRe matches a command invocation in a span: a tool's name as a word
	// or as the last element of ./cmd/<tool>, then a space or the span's end.
	toolRe = regexp.MustCompile(`(?:^|[\s/])(ugrapher(?:-[a-z]+)?)(?:\s|$)`)
	// flagTokenRe matches a flag token: a dash at a word start, then a
	// lower-case name.
	flagTokenRe = regexp.MustCompile(`(?:^|\s)(-[a-z][a-z0-9-]*)`)
)

// commandSpans returns the code a markdown document shows: each line of a
// fenced block and each inline code span elsewhere.
func commandSpans(md string) []string {
	var spans []string
	fenced := false
	for _, line := range strings.Split(md, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			spans = append(spans, line)
			continue
		}
		for _, m := range codeSpanRe.FindAllStringSubmatch(line, -1) {
			spans = append(spans, m[1])
		}
	}
	return spans
}

// declaredFlags returns the names, dash included, that the flag.X("name", …)
// calls in the non-test files of cmd/<tool> declare.
func declaredFlags(t *testing.T, tool string) map[string]bool {
	t.Helper()
	dir := filepath.Join("..", "..", "cmd", tool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{"-h": true, "-help": true}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						flags["-"+name] = true
					}
				}
			}
			return true
		})
	}
	return flags
}

// TestDocumentedCLIFlagsExist: every flag README.md or DESIGN.md shows after
// `ugrapher`, `ugrapher-bench`, `ugrapher-train` or `ugrapher-lint` in one
// command — a fenced line or an inline code span, up to the next tool, pipe
// or command separator — is one that tool declares.
func TestDocumentedCLIFlagsExist(t *testing.T) {
	declared := map[string]map[string]bool{}
	for _, tool := range cliTools {
		declared[tool] = declaredFlags(t, tool)
		if len(declared[tool]) < 4 {
			t.Fatalf("cmd/%s declares only %v", tool, declared[tool])
		}
	}
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range commandSpans(string(raw)) {
			if strings.Contains(span, "go test") || strings.Contains(span, "go vet") {
				continue // the go tool's flags, not the command's
			}
			locs := toolRe.FindAllStringSubmatchIndex(span, -1)
			for i, loc := range locs {
				end := len(span)
				if i+1 < len(locs) {
					end = locs[i+1][0]
				}
				cmd := span[loc[1]:end]
				if j := strings.IndexAny(cmd, "|;&>"); j >= 0 {
					cmd = cmd[:j]
				}
				flags, checked := declared[span[loc[2]:loc[3]]]
				if !checked {
					continue
				}
				for _, m := range flagTokenRe.FindAllStringSubmatch(cmd, -1) {
					if !flags[m[1]] {
						t.Errorf("%s shows `%s`: %s is not a flag of %s", doc, span, m[1], span[loc[2]:loc[3]])
					}
				}
			}
		}
	}
}

// identRe matches a Go identifier a document names: a lower-case package,
// an upper-case name, an optional member and an optional trailing * (a
// prefix). A dot, slash or word character before the package rules out paths
// and longer selectors.
var identRe = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?(\*)?`)

// packageDecls holds what one package's non-test files declare: top-level
// names, and per type its methods, struct fields and interface methods.
type packageDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

// has reports whether name, or with prefix any name starting with it, is in
// set.
func has(set map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return set[name]
	}
	for n := range set {
		if strings.HasPrefix(n, name) {
			return true
		}
	}
	return false
}

// parsePackageDecls reads the declarations of the non-test files in dir.
func parsePackageDecls(t *testing.T, dir string) packageDecls {
	t.Helper()
	d := packageDecls{top: map[string]bool{}, members: map[string]map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
					continue
				}
				recv := decl.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				if idx, ok := recv.(*ast.IndexExpr); ok {
					recv = idx.X
				}
				if id, ok := recv.(*ast.Ident); ok {
					member(id.Name, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						var fields *ast.FieldList
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							fields = typ.Fields
						case *ast.InterfaceType:
							fields = typ.Methods
						}
						if fields == nil {
							continue
						}
						for _, field := range fields.List {
							for _, n := range field.Names {
								member(spec.Name.Name, n.Name)
							}
						}
					}
				}
			}
		}
	}
	return d
}

// TestDocumentedIdentifiersExist: every `pkg.Name` or `pkg.Type.Member`
// README.md or DESIGN.md shows in an inline code span, where pkg is a
// directory under internal/, names a declaration of that package's non-test
// files — a top-level func, type, var or const, or a method, struct field or
// interface method of one of its types (so the shorthand `program.RunRows`
// passes). A trailing * matches a prefix. Lower-case second parts are metric
// names (`shard.edge_cut`) and are not checked.
func TestDocumentedIdentifiersExist(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("..", "..", "internal"))
	if err != nil {
		t.Fatal(err)
	}
	decls := map[string]packageDecls{}
	for _, e := range entries {
		if e.IsDir() {
			decls[e.Name()] = parsePackageDecls(t, filepath.Join("..", "..", "internal", e.Name()))
		}
	}
	if len(decls["models"].top) == 0 {
		t.Fatal("internal/models declares nothing")
	}
	checked := 0
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
			}
			if fenced {
				continue
			}
			for _, span := range codeSpanRe.FindAllStringSubmatch(line, -1) {
				for _, m := range identRe.FindAllStringSubmatch(span[1], -1) {
					d, ok := decls[m[1]]
					if !ok {
						continue
					}
					checked++
					name, member, prefix := m[2], m[3], m[4] == "*"
					var found bool
					if member != "" {
						found = has(d.members[name], member, prefix)
					} else {
						found = has(d.top, name, prefix)
						for _, set := range d.members {
							found = found || has(set, name, prefix)
						}
					}
					if !found {
						t.Errorf("%s:%d shows `%s`: internal/%s declares no %s",
							doc, i+1, span[1], m[1], m[0][strings.Index(m[0], m[1]+"."):])
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("README.md and DESIGN.md name no internal identifier; the scan is broken")
	}
}

// envVarRe matches an environment variable of the repo's.
var envVarRe = regexp.MustCompile(`UGRAPHER_[A-Z0-9]+(?:_[A-Z0-9]+)*`)

// TestDocumentedEnvVarsAreRead: every UGRAPHER_* variable README.md,
// DESIGN.md or the verify recipe names is read by an os.Getenv or
// os.LookupEnv call in the main module's non-test code, and every variable
// read there is named in one of them. Configuration is passed as flags and
// arguments, so today both sets are empty.
func TestDocumentedEnvVarsAreRead(t *testing.T) {
	documented := map[string]string{}
	for _, doc := range []string{"README.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"} {
		raw, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range envVarRe.FindAllString(string(raw), -1) {
			documented[name] = doc
		}
	}
	read := map[string]string{}
	parsed := map[string]bool{}
	fset := token.NewFileSet()
	for _, top := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(filepath.Join("..", "..", top), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			parsed[filepath.ToSlash(path)] = true
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || (sel.Sel.Name != "Getenv" && sel.Sel.Name != "LookupEnv") {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "os" {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						name, _ := strconv.Unquote(lit.Value)
						read[name] = fset.Position(call.Pos()).String()
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The walk must have reached the commands' code, or an empty read set
	// proves nothing.
	if !parsed["../../cmd/ugrapher/main.go"] {
		t.Fatal("the walk did not parse cmd/ugrapher/main.go")
	}
	for name, doc := range documented {
		if read[name] == "" {
			t.Errorf("%s names %s, which no non-test code reads", doc, name)
		}
	}
	for name, at := range read {
		if documented[name] == "" {
			t.Errorf("%s reads %s, which README.md, DESIGN.md and the verify recipe never name", at, name)
		}
	}
}
