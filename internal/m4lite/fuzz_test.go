package m4lite_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/m4lite"
	"repro/internal/maclib"
	"repro/internal/sedlite"
)

// FuzzExpand holds the macro processor to its contract on arbitrary input:
// with the Force's machine-independent macro layer loaded, Expand returns
// text or an error — runaway recursion included (maxOps, maxInput) — and
// never panics.  The seeds are every Force source the repository ships,
// read at test time and taken through maclib's sed rules as the
// preprocessor pipeline does, so they run as ordinary cases under `go
// test` and must expand cleanly; `go test -fuzz FuzzExpand` mutates from
// there (CI runs it for ten seconds).  A finding is fixed here or
// committed under testdata/fuzz/FuzzExpand.
func FuzzExpand(f *testing.F) {
	sed := sedlite.MustParse(maclib.SedRules)
	seeds := map[string]bool{}
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
			text := sed.Apply(string(src))
			seeds[text] = true
			f.Add(text)
		}
	}
	if len(seeds) < 40 {
		f.Fatalf("only %d shipped programs found to seed from", len(seeds))
	}
	f.Add("define(`x', `x y')x")
	f.Add("changequote([,])define([a], [$#:$*:$@])a(1,(2,3),[4)")
	f.Fuzz(func(t *testing.T, text string) {
		p := m4lite.NewProcessor()
		if err := p.Load(maclib.Independent); err != nil {
			t.Fatalf("independent layer: %v", err)
		}
		_, err := p.Expand(text)
		if err != nil && seeds[text] {
			t.Fatalf("a shipped program does not expand: %v", err)
		}
	})
}
