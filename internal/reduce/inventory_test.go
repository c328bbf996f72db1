package reduce_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// parseDir parses the non-test Go files of one package directory of the
// repository, given relative to its root.
func parseDir(t *testing.T, dir string) map[string]*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	files := map[string]*ast.File{}
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(path)] = f
	}
	return files
}

// callers returns, sorted, the top-level functions of files in which pred
// holds for some call's selector name ("entry" for f.entry(...)) or some
// string literal.
func callers(files map[string]*ast.File, pred func(call string, lit string) bool) []string {
	var out []string
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			found := false
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok && pred(sel.Sel.Name, "") {
						found = true
					}
				case *ast.BasicLit:
					if n.Kind == token.STRING && pred("", n.Value) {
						found = true
					}
				}
				return true
			})
			if found {
				out = append(out, fn.Name.Name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestOneCollective pins the path inventory of a global reduction: this
// package declares exactly one type with an arrive / release protocol (the
// Join; no generic episode beside it), internal/core materializes nothing
// per reduction (Force.entry serves Askfor and Resolve only, and reduce.go
// never calls it), and each back end lowers a ReduceStmt in exactly one
// function — the closure compiler by calling Proc.FusedJoin, the emitter
// by printing that call.
func TestOneCollective(t *testing.T) {
	receivers := map[string]bool{}
	for name, f := range parseDir(t, "internal/reduce") {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				// A name is an enumeration (String); anything else with
				// methods is a protocol.
				if id, ok := recv.(*ast.Ident); ok && d.Name.Name != "String" {
					receivers[id.Name] = true
				} else if !ok {
					t.Errorf("%s: method %s on a generic receiver", name, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.TypeParams != nil {
						t.Errorf("%s: generic type %s", name, ts.Name.Name)
					}
				}
			}
		}
	}
	if len(receivers) != 1 || !receivers["Join"] {
		t.Errorf("types with a protocol in internal/reduce: %v, want exactly Join", receivers)
	}

	core := parseDir(t, "internal/core")
	isEntry := func(call, _ string) bool { return call == "entry" }
	if got := callers(core, isEntry); strings.Join(got, " ") != "Askfor Resolve" {
		t.Errorf("Force.entry is called by %v, want Askfor and Resolve only", got)
	}
	if got := callers(map[string]*ast.File{"reduce.go": core["reduce.go"]}, isEntry); len(got) != 0 {
		t.Errorf("core/reduce.go materializes a construct entry in %v", got)
	}

	if got := callers(parseDir(t, "internal/interp"), func(call, _ string) bool { return call == "FusedJoin" }); strings.Join(got, " ") != "region" {
		t.Errorf("internal/interp lowers a reduction in %v, want region alone", got)
	}
	if got := callers(parseDir(t, "internal/codegen"), func(_, lit string) bool { return strings.Contains(lit, "p.FusedJoin(") }); strings.Join(got, " ") != "region" {
		t.Errorf("internal/codegen emits a reduction in %v, want region alone", got)
	}
}
