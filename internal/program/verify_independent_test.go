package program

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// passFiles are the files of the passes the program-level rules check.
var passFiles = map[string]bool{
	"regions.go": true, "rewrite.go": true, "buffers.go": true, "dense.go": true,
	"rows.go": true, "waves.go": true, "compile.go": true,
}

// TestVerifierIndependentOfPasses: the rules in verify_*.go may use the IR's
// types and the accessors ir.go declares on them, but call nothing a pass file
// declares — a bug in a pass cannot then also hide in the rule that checks
// it. Without type information a method is known by its name: a method name a
// pass file declares is off limits to the rules whatever its receiver, unless
// ir.go or a rule file declares a method of that name too. A method value
// passed as an argument counts as a call.
func TestVerifierIndependentOfPasses(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	funcs := map[string]string{}   // pass-declared function -> file
	methods := map[string]string{} // pass-declared method name -> file
	own := map[string]bool{}       // method names ir.go and the rule files declare
	var rules []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		rule := strings.HasPrefix(name, "verify_")
		if rule {
			rules = append(rules, f)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			switch {
			case !ok:
			case passFiles[name] && fd.Recv == nil:
				funcs[fd.Name.Name] = name
			case passFiles[name]:
				methods[fd.Name.Name] = name
			case fd.Recv != nil && (rule || name == "ir.go"):
				own[fd.Name.Name] = true
			}
		}
	}
	if len(rules) < 5 {
		t.Fatalf("found %d verify_*.go files, want the five rule files", len(rules))
	}
	for _, f := range rules {
		imports := map[string]bool{}
		for _, im := range f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			name := path[strings.LastIndex(path, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = true
		}
		check := func(e ast.Expr) {
			switch fn := e.(type) {
			case *ast.Ident:
				// An identifier the parser resolved is declared in this file.
				if file, ok := funcs[fn.Name]; ok && fn.Obj == nil {
					t.Errorf("%s: calls %s, declared in pass file %s", fset.Position(fn.Pos()), fn.Name, file)
				}
			case *ast.SelectorExpr:
				if x, ok := fn.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] {
					return // a package-qualified call
				}
				if file, ok := methods[fn.Sel.Name]; ok && !own[fn.Sel.Name] {
					t.Errorf("%s: calls method %s, declared in pass file %s", fset.Position(fn.Pos()), fn.Sel.Name, file)
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				check(call.Fun)
				for _, a := range call.Args {
					if sel, ok := a.(*ast.SelectorExpr); ok {
						check(sel)
					}
				}
			}
			return true
		})
	}
}
