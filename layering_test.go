// Two layering inventories, read off the source with go/parser: what the
// front end may import, and which of internal/plan's names the two back
// ends may mention.
package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// parsePackage parses the non-test Go files of one package directory.
func parsePackage(t *testing.T, dir string, mode parser.Mode) []*ast.File {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no Go files in %s: %v", dir, err)
	}
	var files []*ast.File
	fset := token.NewFileSet()
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestFrontEndImportsNoMachine: the language, its proofs and its analyzer
// — forcelang, uniform, plan, vet — import nothing of this repository but
// each other and forcert (the run-time checks' wording): no scheduler, no
// reduction, no machine profile and no shared-memory emulation.  What a
// back end needs to know about those arrives as plan's own enumerations.
func TestFrontEndImportsNoMachine(t *testing.T) {
	allowed := map[string]bool{}
	front := []string{"forcelang", "uniform", "plan", "vet"}
	for _, pkg := range append(front, "forcert") {
		allowed["repro/internal/"+pkg] = true
	}
	for _, pkg := range front {
		for _, f := range parsePackage(t, filepath.Join("internal", pkg), parser.ImportsOnly) {
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "repro/") && !allowed[path] {
					t.Errorf("internal/%s imports %s", pkg, path)
				}
			}
		}
	}
}

// TestBackEndsOnlySpell: the names of internal/plan each back end mentions
// outside its tests.  They are the node types, the enumerations a node's
// fields range over, the plan of a body and the accumulate recogniser —
// what it takes to spell a decision — and none of the functions that take
// one (Classify, Summarize; Next is reached through Target).  The lists
// are exact, so they may only shrink: a back end that starts deciding
// fails here, and so does a row nothing uses any more.
func TestBackEndsOnlySpell(t *testing.T) {
	for dir, allowed := range map[string]string{
		"internal/interp": "Target Plain Planned Fused Loop Region Plan Cyclic Block Self " +
			"Fold Sum Prod Max Min And Or " +
			"Accum AccRec AccOp AccSum AccMax AccMin MatchAccum MatchRecur",
		"internal/codegen": "Target Fused Loop Region Cyclic Block Self " +
			"StoreOnce StoreEachEarly StoreEachSerialised " +
			"Accum AccRec AccOp AccSum AccMax MatchAccum",
	} {
		used := map[string]bool{}
		for _, f := range parsePackage(t, dir, 0) {
			ast.Inspect(f, func(n ast.Node) bool {
				// A package name is the one identifier the parser leaves
				// unresolved; c.plan and a local named plan are not it.
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if id, ok := sel.X.(*ast.Ident); ok && id.Name == "plan" && id.Obj == nil {
						used[sel.Sel.Name] = true
					}
				}
				return true
			})
		}
		var got []string
		for name := range used {
			got = append(got, name)
		}
		want := strings.Fields(allowed)
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s mentions plan's\n  %s\nthe inventory allows exactly\n  %s", dir, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
}
