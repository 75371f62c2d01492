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

// envVarRe matches an environment variable of the repo's.
var envVarRe = regexp.MustCompile(`UGRAPHER_[A-Z0-9]+(?:_[A-Z0-9]+)*`)

// TestDocumentedEnvVarsAreRead: every UGRAPHER_* variable README.md,
// DESIGN.md or the verify recipe names is read by an os.Getenv or
// os.LookupEnv call in the main module's non-test code, and every variable
// read there is named in one of them.
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
	if len(read) == 0 {
		t.Fatal("found no os.Getenv/LookupEnv reader at all")
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
