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
	"sort"
	"strings"
)

// The unread rule: every top-level function, method, type, var and const in
// the non-test files of internal/ and cmd/ needs a reader — a reference from
// non-test code anywhere under the module root (internal/, cmd/, examples/,
// and the nested benchmark module, which is read but never reported on) from
// outside the declaration itself. A method is also read when an interface in
// the scanned code, or a standard-library interface the repo implements, names
// it. The module is type-checked from source with the standard library
// stubbed (stubImporter), so a reference resolves to the declaration it names;
// a selector the stubs leave unresolved counts as a read of every method of
// its name. The rule may miss unread code; it must never flag read code.

// LintUnread is the unread rule's id.
const LintUnread = "unread"

// stdlibInterfaceMethods are the methods of the standard-library interfaces
// the repo's types implement (sort and container/heap, fmt.Stringer, error
// and its Unwrap, http.Handler, go/types.Importer): the library calls them,
// no selector in the repo does.
var stdlibInterfaceMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true, "Import": true,
}

// LintDirs lints every directory as one package, runs the unread rule over
// them against the whole module that contains them, and returns all findings
// sorted by file and line. Every directory must be a package of the module
// that contains dirs[0].
func LintDirs(dirs []string) ([]Finding, error) {
	if len(dirs) == 0 {
		return nil, nil
	}
	im, err := loadModule(dirs[0])
	if err != nil {
		return nil, err
	}
	pkgs := make([]*modulePkg, len(dirs))
	for i, d := range dirs {
		abs, err := filepath.Abs(d)
		if err != nil {
			return nil, err
		}
		if pkgs[i] = im.pkgs[im.byDir[abs]]; pkgs[i] == nil {
			if _, err := os.Stat(d); err != nil {
				return nil, fmt.Errorf("lint: %w", err)
			}
			return nil, fmt.Errorf("lint: %s is not a package of the module at %s (hidden, vendor and testdata directories are not)", d, im.root)
		}
	}
	for path := range im.pkgs {
		_, _ = im.Import(path)
	}
	var all []Finding
	for i, d := range dirs {
		all = append(all, lintFiles(im.fset, pkgs[i].files, d, im.info)...)
	}
	all = append(all, im.unread(dirs)...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].File != all[j].File {
			return all[i].File < all[j].File
		}
		return all[i].Line < all[j].Line
	})
	return all, nil
}

// modulePkg is one package directory of the scanned tree.
type modulePkg struct {
	files []*ast.File
	types *types.Package
}

// moduleImporter holds the parsed module tree. It type-checks the scanned
// packages from source on first import and stubs everything else (the
// standard library).
type moduleImporter struct {
	root  string
	fset  *token.FileSet
	pkgs  map[string]*modulePkg // by import path
	byDir map[string]string     // absolute directory -> import path
	info  *types.Info
	stub  stubImporter
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.stub.Import(path)
	}
	if p.types == nil {
		conf := types.Config{Importer: im, Error: func(error) {}, DisableUnusedImportCheck: true}
		p.types, _ = conf.Check(path, im.fset, p.files, im.info)
	}
	return p.types, nil
}

// loadModule parses every non-test .go file of the module that contains dir
// (hidden, vendor and testdata directories skipped) into packages keyed by
// import path; a directory with its own go.mod starts a nested module.
func loadModule(dir string) (*moduleImporter, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			break
		}
		if filepath.Dir(abs) == abs {
			return nil, fmt.Errorf("lint: %s is in no module", dir)
		}
		abs = filepath.Dir(abs)
	}
	im := &moduleImporter{
		root:  abs,
		fset:  token.NewFileSet(),
		pkgs:  make(map[string]*modulePkg),
		byDir: make(map[string]string),
		info:  &types.Info{Uses: make(map[*ast.Ident]types.Object), Selections: make(map[*ast.SelectorExpr]*types.Selection)},
		stub:  stubImporter{pkgs: make(map[string]*types.Package)},
	}
	// Walk from a relative root when the caller named a relative directory,
	// so findings print paths relative to the working directory.
	root := abs
	if wd, err := os.Getwd(); err == nil && !filepath.IsAbs(dir) {
		if rel, err := filepath.Rel(wd, abs); err == nil {
			root = rel
		}
	}
	modules := make(map[string]string) // module directory -> module path
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if skipDir(path, root, name) {
				return filepath.SkipDir
			}
			src, _ := os.ReadFile(filepath.Join(path, "go.mod"))
			for _, line := range strings.Split(string(src), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					modules[path] = strings.Trim(f[1], `"`)
				}
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(im.fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		dir, modDir := filepath.Dir(path), filepath.Dir(path)
		for modules[modDir] == "" && modDir != root {
			modDir = filepath.Dir(modDir)
		}
		importPath := modules[modDir]
		if rel, _ := filepath.Rel(modDir, dir); rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		if im.pkgs[importPath] == nil {
			im.pkgs[importPath] = &modulePkg{}
			absDir, _ := filepath.Abs(dir)
			im.byDir[absDir] = importPath
		}
		im.pkgs[importPath].files = append(im.pkgs[importPath].files, f)
		return nil
	})
	return im, err
}

// unread runs the unread rule over those of dirs that lie under internal/ or
// cmd/ of the module, once every package is type-checked.
func (im *moduleImporter) unread(dirs []string) []Finding {
	r := readers{read: make(map[string]bool), byName: make(map[string]bool), ifaceNames: make(map[string]bool), info: im.info}
	for _, p := range im.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				own := make(map[string]bool)
				for _, k := range declKeys(p.types.Path(), d) {
					own[k.key] = true
				}
				visit := func(n ast.Node) bool { r.collect(n, own); return true }
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					// A method's receiver does not read its type.
					ast.Inspect(fd.Type, visit)
					if fd.Body != nil {
						ast.Inspect(fd.Body, visit)
					}
					continue
				}
				ast.Inspect(d, visit)
			}
		}
	}

	var findings []Finding
	for _, d := range dirs {
		abs, _ := filepath.Abs(d)
		rel, _ := filepath.Rel(im.root, abs)
		top, _, _ := strings.Cut(filepath.ToSlash(rel), "/")
		p := im.pkgs[im.byDir[abs]]
		if p == nil || top != "internal" && top != "cmd" {
			continue
		}
		for _, f := range p.files {
			lf := &fileLinter{fset: im.fset, file: f}
			lf.collectComments()
			lf.findings = nil // lint-directive findings belong to the per-file pass
			for _, d := range f.Decls {
				for _, k := range declKeys(p.types.Path(), d) {
					if r.read[k.key] || k.method && (r.ifaceNames[k.name] || stdlibInterfaceMethods[k.name] || r.byName[k.name]) {
						continue
					}
					lf.report(k.pos, LintUnread, fmt.Sprintf(
						"%s is read by no non-test code outside itself: delete it, move it into a _test.go, or write `//lint:allow unread -- <who reads it>`", k.label))
				}
			}
			findings = append(findings, lf.findings...)
		}
	}
	return findings
}

// readers is what the scanned tree reads: the keys of the declarations it
// references, the names of the selectors the type-check left unresolved, and
// the methods its interfaces declare.
type readers struct {
	read, byName, ifaceNames map[string]bool
	info                     *types.Info
}

// collect records what node n reads, except the declaration keys in own.
func (r *readers) collect(n ast.Node, own map[string]bool) {
	switch n := n.(type) {
	case *ast.Ident:
		if obj := r.info.Uses[n]; obj != nil {
			if k := objectKey(obj); k != "" && !own[k] {
				r.read[k] = true
			}
		}
	case *ast.SelectorExpr:
		if s, ok := r.info.Selections[n]; ok {
			if k := objectKey(s.Obj()); k != "" && !own[k] {
				r.read[k] = true
			}
		} else if r.info.Uses[n.Sel] == nil {
			r.byName[n.Sel.Name] = true
		}
	case *ast.InterfaceType:
		for _, m := range n.Methods.List {
			for _, name := range m.Names {
				r.ifaceNames[name.Name] = true
			}
		}
	}
}

// unreadDecl is one declared name the rule checks.
type unreadDecl struct {
	key, name, label string
	method           bool
	pos              token.Pos
}

// declKeys lists the names a top-level declaration of package pkgPath
// declares, keyed as objectKey keys their objects. main, init and blank names
// have no reader by construction and are left out.
func declKeys(pkgPath string, d ast.Decl) []unreadDecl {
	short := pkgPath[strings.LastIndex(pkgPath, "/")+1:]
	var ids []*ast.Ident
	switch d := d.(type) {
	case *ast.FuncDecl:
		if d.Recv != nil {
			recv := receiverTypeName(d.Recv)
			return []unreadDecl{{key: pkgPath + "." + recv + "." + d.Name.Name, name: d.Name.Name, method: true,
				label: fmt.Sprintf("(%s.%s).%s", short, recv, d.Name.Name), pos: d.Name.Pos()}}
		}
		if d.Name.Name != "main" && d.Name.Name != "init" {
			ids = append(ids, d.Name)
		}
	case *ast.GenDecl:
		for _, s := range d.Specs {
			switch s := s.(type) {
			case *ast.TypeSpec:
				ids = append(ids, s.Name)
			case *ast.ValueSpec:
				ids = append(ids, s.Names...)
			}
		}
	}
	var out []unreadDecl
	for _, id := range ids {
		if id.Name != "_" {
			out = append(out, unreadDecl{key: pkgPath + "." + id.Name, name: id.Name, label: short + "." + id.Name, pos: id.Pos()})
		}
	}
	return out
}

// objectKey names a package-level object or a method of a named type the way
// declKeys names its declaration, or returns "" for anything else (locals,
// fields, interface methods, the universe).
func objectKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
