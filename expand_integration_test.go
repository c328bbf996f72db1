// The textual preprocessor pipeline (sed rules, then the two macro
// layers) over every program the repository owns, pinned in
// testdata/expand.sum.
package repro_test

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/maclib"
)

// TestExpandGolden pins maclib.Expand's output for each corpus program
// and every .force file under examples/, testdata/ and
// benchmark/programs/, under every machine layer: one line per program,
// a sha256 prefix per machine (`go test -run TestExpandGolden . -update`
// rewrites testdata/expand.sum; a change to sedlite, m4lite or the layers
// that is meant to be a refactor must leave it unchanged).
func TestExpandGolden(t *testing.T) {
	sources := ownedPrograms(t)
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	sort.Strings(names)
	var golden strings.Builder
	for _, name := range names {
		golden.WriteString(name)
		for _, machine := range maclib.Machines() {
			out, err := maclib.Expand(machine, sources[name])
			if err != nil {
				out = "error: " + err.Error()
			}
			sum := sha256.Sum256([]byte(out))
			fmt.Fprintf(&golden, " %s=%x", machine, sum[:8])
		}
		golden.WriteByte('\n')
	}
	checkGolden(t, "testdata/expand.sum", golden.String())
}
