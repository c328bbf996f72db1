package forcelang

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// shipped lists the Force sources the repository ships: the examples, the
// benchmark programs and the memory-model litmus corpus.
var shipped = []string{"../../examples/*/*.force", "../../benchmark/programs/*/*.force", "../../testdata/litmus/*.force"}

// readSources reads every file the patterns match, at test time, so a
// new program is a new case.
func readSources(tb testing.TB, patterns ...string) (paths, srcs []string) {
	tb.Helper()
	for _, pattern := range patterns {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			tb.Fatal(err)
		}
		for _, path := range matches {
			src, err := os.ReadFile(path)
			if err != nil {
				tb.Fatal(err)
			}
			paths = append(paths, path)
			srcs = append(srcs, string(src))
		}
	}
	return paths, srcs
}

// crlf gives src DOS line endings.
func crlf(src string) string { return strings.ReplaceAll(src, "\n", "\r\n") }

// crlfMismatch says how src and its CRLF form parse differently, or
// returns nil when both fail or both give the same tree apart from the
// Source each carries.
func crlfMismatch(src string) error {
	lf, err := Parse(src)
	dos, dosErr := Parse(crlf(src))
	switch {
	case err != nil && dosErr != nil:
		return nil
	case err != nil:
		return fmt.Errorf("only the LF form fails: %v", err)
	case dosErr != nil:
		return fmt.Errorf("only the CRLF form fails: %v", dosErr)
	}
	lf.Source, dos.Source = "", ""
	if !reflect.DeepEqual(lf, dos) {
		return errors.New("the LF and CRLF forms parse to different trees")
	}
	return nil
}

// FuzzParse is the never-panic target over the front end: whatever the
// text, Parse — lexer, parser and checker — returns a checked program or
// an error, and the text with CRLF line endings parses the same way.  The
// seed corpus is every Force source the repository ships, read at test
// time, so the seeds run as ordinary cases under `go test` and a new
// example is a new seed; `go test -fuzz FuzzParse` mutates from there (CI
// runs it for ten seconds).  A finding is fixed here or committed under
// testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	_, srcs := readSources(f, shipped...)
	if len(srcs) < 50 {
		f.Fatalf("only %d shipped programs found to seed from", len(srcs))
	}
	for _, src := range srcs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Parse returned program %v, error %v", prog != nil, err)
		}
		if err := crlfMismatch(src); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCRLFParsesLikeLF: every shipped program, its line endings turned
// into CRLF, parses to the tree its LF original does — a bare column-one
// C comment line included.
func TestCRLFParsesLikeLF(t *testing.T) {
	paths, srcs := readSources(t, shipped...)
	for i, src := range srcs {
		if _, err := Parse(src); err != nil {
			t.Errorf("%s: %v", paths[i], err)
		} else if err := crlfMismatch(src); err != nil {
			t.Errorf("%s: %v", paths[i], err)
		}
	}
}
