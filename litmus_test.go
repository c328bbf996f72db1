// The litmus corpus (testdata/litmus): small programs whose outcome set
// README *Semantics → Visibility* fixes, each beside the file of its
// allowed outcomes, one per line.  Every program runs on every tier at
// several np, repeatedly; whatever it prints must be an allowed outcome,
// and a synchronized program is allowed exactly one.
package repro_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/forcelang"
	"repro/internal/interp"
)

func TestLitmus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	for _, tc := range []struct {
		name         string
		synchronized bool
		narrates     []string // what the default tier must decide, or the litmus tests nothing
	}{
		{"mp-barrier", true, []string{"line 15: DOALL span-checked 1 of 1 element references, block-evaluated"}},
		{"mp-ridden", true, []string{"line 13: DOALL span-checked 1 of 1 element references, block-evaluated", "line 16: Barrier rides the DOALL exit at line 13"}},
		{"mp-fused", true, []string{"line 13: fused 2 DOALLs", "line 13: DOALL span-checked 1 of 1 element references, block-evaluated"}},
		{"racy-read", false, []string{"line 20: DOALL span-checked 1 of 1 element references, block-evaluated"}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			base := filepath.Join("testdata", "litmus", tc.name)
			src, err := os.ReadFile(base + ".force")
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(base + ".allowed")
			if err != nil {
				t.Fatal(err)
			}
			allowed := map[string]bool{}
			for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
				allowed[line] = true
			}
			if tc.synchronized != (len(allowed) == 1) {
				t.Fatalf("%d allowed outcomes for a program with synchronized = %v", len(allowed), tc.synchronized)
			}
			prog := forcelang.MustParse(string(src))

			var narration strings.Builder
			if err := interp.Run(prog, interp.Config{NP: 2, Stdout: &strings.Builder{}, FuseLog: func(msg string) {
				narration.WriteString(msg + "\n")
			}}); err != nil {
				t.Fatal(err)
			}
			for _, n := range tc.narrates {
				if !strings.Contains(narration.String(), n) {
					t.Errorf("the default tier does not narrate %q:\n%s", n, narration.String())
				}
			}

			observed := map[string]string{} // outcome -> the first run that printed it
			note := func(run, out string, err error) {
				if err != nil {
					t.Fatalf("%s: %v", run, err)
				}
				if o := strings.TrimSpace(out); observed[o] == "" {
					observed[o] = run
				}
			}
			for _, np := range []int{1, 2, 4} {
				for rep := 0; rep < 3; rep++ {
					for _, mode := range interp.ExecModes() {
						var sb strings.Builder
						err := interp.Run(prog, interp.Config{NP: np, Stdout: &sb, Exec: mode})
						note(fmt.Sprintf("%s np=%d", mode, np), sb.String(), err)
					}
					var sb strings.Builder
					err := interp.Run(prog, interp.Config{NP: np, Stdout: &sb, NoFuse: true})
					note(fmt.Sprintf("chunked -fuse off np=%d", np), sb.String(), err)
					out, err := aotRun(t, prog, np)
					note(fmt.Sprintf("aot np=%d", np), out, err)
				}
			}
			for o, run := range observed {
				if !allowed[o] {
					t.Errorf("%s printed %q, not an allowed outcome of %s.allowed", run, o, tc.name)
				}
			}
		})
	}
}
