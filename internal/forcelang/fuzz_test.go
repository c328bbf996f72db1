package forcelang

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse is the never-panic target over the front end: whatever the
// text, Parse — lexer, parser and checker — returns a checked program or
// an error.  The seed corpus is every Force source the repository ships,
// read at test time, so the seeds run as ordinary cases under `go test`
// and a new example is a new seed; `go test -fuzz FuzzParse` mutates from
// there (CI runs it for ten seconds).  A finding is fixed here or
// committed under testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
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
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Parse returned program %v, error %v", prog != nil, err)
		}
	})
}
