package aot

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/corpus"
	"repro/internal/forcelang"
)

var update = flag.Bool("update", false, "rewrite recipe.sum")

// recipePackages returns the module root and the directory of every
// package of this module that internal/aot links, by import path: the
// code a cached binary is built from.  It skips the test where no go
// toolchain is on PATH.
func recipePackages(t *testing.T) (root string, dirs map[string]string) {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go toolchain on PATH")
	}
	out, err := exec.Command("go", "list", "-deps", "-f",
		"{{if .Module}}{{if .Module.Main}}{{.ImportPath}}\t{{.Dir}}\t{{.Module.Dir}}{{end}}{{end}}", ".").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	dirs = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 {
			t.Fatalf("go list printed %q", line)
		}
		dirs[f[0]], root = f[1], f[2]
	}
	return root, dirs
}

// TestRecipeCurrent: recipe.sum, the line every key hashes, is the
// digest of the sources as they are: go.mod and every non-test .go and
// .s file of the recipe's packages, taken by glob rather than by the
// build's file list so that every build-tag variant counts and the
// digest is one on every GOOS and GOARCH, in order of module-relative
// path, each framed by that path and its length.  An edit of the front
// end, the planner, the emitter or the runtime a binary links fails here
// until the line is rewritten, and the rewritten line misses every entry
// built before the edit.
func TestRecipeCurrent(t *testing.T) {
	root, dirs := recipePackages(t)
	files := []string{"go.mod"}
	for _, dir := range dirs {
		for _, pat := range []string{"*.go", "*.s"} {
			m, err := filepath.Glob(filepath.Join(dir, pat))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range m {
				if strings.HasSuffix(p, "_test.go") {
					continue
				}
				rel, err := filepath.Rel(root, p)
				if err != nil {
					t.Fatal(err)
				}
				files = append(files, filepath.ToSlash(rel))
			}
		}
	}
	sort.Strings(files)
	h, size := sha256.New(), 0
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(f)))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
		size += len(data)
	}
	digest := hex.EncodeToString(h.Sum(nil))
	t.Logf("recipe: %d packages, %d files, %d bytes", len(dirs), len(files), size)
	if *update {
		if err := os.WriteFile("recipe.sum", []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if recipe != digest+"\n" {
		t.Fatalf("internal/aot/recipe.sum is %q, but the sources a binary is built from hash to %s;\n"+
			"rewrite it with: go test ./internal/aot -run TestRecipeCurrent -update", recipe, digest)
	}
}

// TestRecipeCoversGeneratedImports: every package of this module that a
// generated program imports is in the recipe, so an edit of the runtime
// a binary links changes its key.  The programs are every corpus
// program and the committed example of generated code.
func TestRecipeCoversGeneratedImports(t *testing.T) {
	_, dirs := recipePackages(t)
	var progs []corpus.Program
	for _, set := range [][]corpus.Program{corpus.Equiv, corpus.RuntimeErrors, corpus.NonUniform,
		corpus.Chunk, corpus.Fusion, corpus.Reductions, corpus.FusionFaults} {
		progs = append(progs, set...)
	}
	example, err := os.ReadFile(filepath.Join("..", "..", "examples", "generated", "reduce.force"))
	if err != nil {
		t.Fatal(err)
	}
	progs = append(progs, corpus.Program{Name: "examples/generated/reduce.force", Src: string(example)})
	imported := map[string]bool{}
	for _, p := range progs {
		src, err := codegen.Generate(forcelang.MustParse(p.Src), codegen.Options{})
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), p.Name+".go", src, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("%s: generated Go does not parse: %v", p.Name, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(path, "repro/") || imported[path] {
				continue
			}
			imported[path] = true
			if _, ok := dirs[path]; !ok {
				t.Errorf("%s imports %s, which is not in the recipe", p.Name, path)
			}
		}
	}
	if len(imported) == 0 {
		t.Fatal("no generated program imports a package of this module: the test checks nothing")
	}
	t.Logf("%d programs import %d packages of this module", len(progs), len(imported))
}
