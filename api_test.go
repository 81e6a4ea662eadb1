package pnps

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names internal/ exports kept without a non-test
// caller. A key is a package import path (every export of it),
// "path.Name" (one identifier) or "path.Type.Method" (one method).
var exportAllowlist = map[string]string{
	"pnps/internal/testutil":     "test-support package: its callers are _test.go files by design",
	"pnps/internal/coord/faults": "test-support package: the fault-injection harness driven only by tests",
	"pnps/internal/ode.RK4":      "accuracy oracle the RK23 tests compare against",
}

// stdlibMethods are method names the standard library calls through an
// interface (fmt.Stringer, error, json.Marshaler, sort.Interface,
// http.Handler, io.Writer, ...), so no selector in this repo names them.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true, "Write": true, "Read": true, "Close": true,
}

// TestInternalExportsHaveCallers fails when an exported identifier
// under internal/ has no caller outside _test.go files: the
// exported-identifier counterpart of staticcheck's U1000 check, which
// skips exports. Every non-test .go file of the repo is a potential
// caller, the perfbench module and the command and example mains
// included. Package-level funcs, types, vars and consts are matched by
// (import path, name) through each file's imports, plus unqualified use
// inside their own package outside their own declaration. Methods are
// matched by selector name alone, which errs toward "used" and so never
// flags live code.
func TestInternalExportsHaveCallers(t *testing.T) {
	type decl struct{ pkg, name string }
	type method struct{ pkg, recv, name string }
	decls := map[decl]token.Position{} // package-level exports under internal/
	methods := map[method]token.Position{}
	used := map[decl]bool{}
	selectors := map[string]bool{}

	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "pnps"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		imports := map[string]string{} // local name → import path
		for _, im := range f.Imports {
			ipath, _ := strconv.Unquote(im.Path.Value)
			name := ipath[strings.LastIndex(ipath, "/")+1:]
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = ipath
		}
		// mark records the uses inside n, skipping the identifiers in
		// self that n itself declares: recursion, a method's own type
		// and a self-referential type are no callers.
		mark := func(n ast.Node, self map[string]bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selectors[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if ipath, ok := imports[x.Name]; ok {
							used[decl{ipath, n.Sel.Name}] = true
						}
					}
				case *ast.Ident:
					if !self[n.Name] {
						used[decl{pkg, n.Name}] = true
					}
				}
				return true
			})
		}
		internal := strings.HasPrefix(pkg, "pnps/internal/")
		for _, dc := range f.Decls {
			switch dc := dc.(type) {
			case *ast.FuncDecl:
				name := dc.Name.Name
				if dc.Recv != nil {
					typ := recvType(dc.Recv.List[0].Type)
					if internal && dc.Name.IsExported() {
						methods[method{pkg, typ, name}] = fset.Position(dc.Pos())
					}
					mark(dc, map[string]bool{typ: true, name: true})
					continue
				}
				if internal && dc.Name.IsExported() {
					decls[decl{pkg, name}] = fset.Position(dc.Pos())
				}
				mark(dc, map[string]bool{name: true})
			case *ast.GenDecl:
				for _, sp := range dc.Specs {
					var names []*ast.Ident
					switch sp := sp.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{sp.Name}
					case *ast.ValueSpec:
						names = sp.Names
					}
					self := map[string]bool{}
					for _, id := range names {
						self[id.Name] = true
						if internal && id.IsExported() {
							decls[decl{pkg, id.Name}] = fset.Position(id.Pos())
						}
					}
					mark(sp, self)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var offenders []string
	allowed := func(pkg, name string) bool {
		return exportAllowlist[pkg] != "" || exportAllowlist[pkg+"."+name] != ""
	}
	for d, pos := range decls {
		if !used[d] && !allowed(d.pkg, d.name) {
			offenders = append(offenders, pos.String()+": "+d.pkg+"."+d.name)
		}
	}
	for m, pos := range methods {
		if !selectors[m.name] && !stdlibMethods[m.name] && !allowed(m.pkg, m.recv+"."+m.name) {
			offenders = append(offenders, pos.String()+": "+m.pkg+".("+m.recv+")."+m.name)
		}
	}
	if len(offenders) > 0 {
		sort.Strings(offenders)
		t.Errorf("%d exported identifiers under internal/ have no non-test caller; delete them or unexport them:\n%s",
			len(offenders), strings.Join(offenders, "\n"))
	}
}

// recvType returns the type name of a method receiver expression
// (T, *T, T[P] or *T[P]).
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
