package cordoba_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// modulePath is the import path of the repository root.
const modulePath = "cordoba"

// stdlibMethods are method names that satisfy a standard-library interface
// (sort.Interface, fmt.Stringer, error, json.Marshaler/Unmarshaler,
// http.Handler). The standard library calls them, so no selector in this
// tree needs to.
var stdlibMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true,
	"String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true,
}

// exportDecl is one exported declaration in internal/ or the facade.
type exportDecl struct {
	key      string // "pkg.Name", or "pkg.Type.Method" for a method
	path     string // import path of the declaring package
	name     string
	method   bool
	pos, end token.Pos
}

// exportUse is one reference in non-test code. A package-level name is
// matched by import path and name; a method (path == "") by name alone,
// since a selector's receiver type is unknown without type checking — that
// only errs toward counting a method as used.
type exportUse struct {
	path, name string
	pos        token.Pos
}

// TestExportsHaveCallers holds every exported declaration in internal/ and
// cordoba.go to a production use: a reference from a non-test file of the
// tree (cordobench/, cmd/, examples/ and the other packages included)
// outside the declaration itself. A method's receiver does not count as a
// use of its type. A declaration kept without one — a reference that other
// packages' tests compare against, or a documented entry point — is listed
// with its reason in testdata/unreached_exports.txt; a listed name that
// gains a caller or disappears must leave the list.
func TestExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportDecl
	uses := map[string][]exportUse{} // by name
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (n == "testdata" || n == "vendor" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		pkgPath := modulePath
		if dir != "." {
			pkgPath += "/" + dir
		}
		if strings.HasPrefix(dir, "internal/") || p == "cordoba.go" {
			decls = append(decls, exportedDecls(f, pkgPath)...)
		}
		for _, u := range fileUses(f, pkgPath) {
			uses[u.name] = append(uses[u.name], u)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{}
	for _, d := range decls {
		for _, u := range uses[d.name] {
			if (u.pos < d.pos || u.pos >= d.end) &&
				((d.method && u.path == "") || (!d.method && u.path == d.path)) {
				used[d.key] = true
				break
			}
		}
	}

	exempt := readExemptions(t, "testdata/unreached_exports.txt")
	declared := map[string]bool{}
	var missing []string
	for _, d := range decls {
		declared[d.key] = true
		if !used[d.key] && exempt[d.key] == "" {
			missing = append(missing, d.key)
		}
	}
	sort.Strings(missing)
	for _, k := range missing {
		t.Errorf("%s: exported but no non-test code references it; delete it, move it into the _test.go that uses it, or list it with a reason in testdata/unreached_exports.txt", k)
	}
	for k := range exempt {
		switch {
		case !declared[k]:
			t.Errorf("testdata/unreached_exports.txt lists %s, which is no longer declared", k)
		case used[k]:
			t.Errorf("testdata/unreached_exports.txt lists %s, which now has a production caller", k)
		}
	}
}

// exportedDecls lists f's exported top-level declarations. Methods named
// after a standard-library interface method are left out.
func exportedDecls(f *ast.File, pkgPath string) []exportDecl {
	pkg := f.Name.Name
	var out []exportDecl
	add := func(key, name string, method bool, n ast.Node) {
		out = append(out, exportDecl{key: key, path: pkgPath, name: name, method: method, pos: n.Pos(), end: n.End()})
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			name := d.Name.Name
			switch {
			case !ast.IsExported(name):
			case d.Recv == nil:
				add(pkg+"."+name, name, false, d)
			case !stdlibMethods[name]:
				add(pkg+"."+receiverName(d.Recv.List[0].Type)+"."+name, name, true, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(pkg+"."+s.Name.Name, s.Name.Name, false, s)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							add(pkg+"."+n.Name, n.Name, false, s)
						}
					}
				}
			}
		}
	}
	return out
}

// receiverName is the type name of a method receiver expression.
func receiverName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

// fileUses lists the references in f: a bare identifier is a use of the
// same-package name, pkg.Name of the imported package's name, and any other
// x.Name of a member. Names being declared (functions, types, values,
// fields, labels) and method receivers are not uses.
func fileUses(f *ast.File, pkgPath string) []exportUse {
	imports := map[string]string{}
	for _, s := range f.Imports {
		p := strings.Trim(s.Path.Value, `"`)
		name := p[strings.LastIndex(p, "/")+1:]
		if s.Name != nil {
			name = s.Name.Name
		}
		imports[name] = p
	}
	var out []exportUse
	var walk func(n ast.Node) bool
	visit := func(n ast.Node) {
		if n != nil {
			ast.Inspect(n, walk)
		}
	}
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ImportSpec, *ast.BranchStmt:
			return false
		case *ast.FuncDecl:
			visit(x.Type)
			if x.Body != nil {
				visit(x.Body)
			}
			return false
		case *ast.TypeSpec:
			if x.TypeParams != nil {
				visit(x.TypeParams)
			}
			visit(x.Type)
			return false
		case *ast.ValueSpec:
			visit(x.Type)
			for _, v := range x.Values {
				visit(v)
			}
			return false
		case *ast.Field:
			visit(x.Type)
			return false
		case *ast.LabeledStmt:
			visit(x.Stmt)
			return false
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
				out = append(out, exportUse{path: imports[id.Name], name: x.Sel.Name, pos: x.Sel.Pos()})
				return false
			}
			out = append(out, exportUse{name: x.Sel.Name, pos: x.Sel.Pos()})
			visit(x.X)
			return false
		case *ast.Ident:
			out = append(out, exportUse{path: pkgPath, name: x.Name, pos: x.Pos()})
		}
		return true
	}
	for _, d := range f.Decls {
		visit(d)
	}
	return out
}

// readExemptions reads "key reason" lines; blank lines and # comments are
// skipped, and every key needs a reason.
func readExemptions(t *testing.T, name string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %s has no reason", name, key)
			continue
		}
		if _, dup := out[key]; dup {
			t.Errorf("%s: %s listed twice", name, key)
		}
		out[key] = strings.TrimSpace(reason)
	}
	return out
}
