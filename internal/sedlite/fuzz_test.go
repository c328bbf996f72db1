package sedlite_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/maclib"
	"repro/internal/sedlite"
)

// FuzzExpand holds the stream editor to its contract on arbitrary input:
// the Force's own rule set (maclib.SedRules, the first preprocessor pass)
// edits any text without panicking, line structure intact — a rule
// rewrites a line, it never deletes or adds one.  The seeds are every Force
// source the repository ships, read at test time, so they run as ordinary
// cases under `go test` and a new example is a new seed; `go test -fuzz
// FuzzExpand` mutates from there (CI runs it for ten seconds).  A finding
// is fixed here or committed under testdata/fuzz/FuzzExpand.
func FuzzExpand(f *testing.F) {
	rules := sedlite.MustParse(maclib.SedRules)
	seeds := 0
	for _, pattern := range []string{"../../examples/*/*.force", "../../benchmark/programs/*/*.force"} {
		paths, err := filepath.Glob(pattern)
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			src, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
			seeds++
		}
	}
	if seeds < 40 {
		f.Fatalf("only %d shipped programs found to seed from", seeds)
	}
	f.Fuzz(func(t *testing.T, text string) {
		out := rules.Apply(text)
		if in, got := strings.Count(text, "\n"), strings.Count(out, "\n"); got != in {
			t.Fatalf("%d lines in, %d lines out", in, got)
		}
	})
}
