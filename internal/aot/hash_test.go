package aot

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/reduce"
	"repro/internal/sched"
)

const hashBase = `Force H of NP ident ME
Shared Integer S
Shared Real A(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
  A(I) = REAL(I)
End Presched DO
Barrier
  S = 1
End Barrier
Join
`

// TestKeySensitiveToLayout: the binary reports errors and narrates its
// plan by source line, so any difference in the text — one blank line, a
// comment, a reordered declaration — is a different program to the cache.
func TestKeySensitiveToLayout(t *testing.T) {
	base := Key(forcelang.MustParse(hashBase))
	if again := Key(forcelang.MustParse(hashBase)); again != base {
		t.Fatalf("one text, two keys:\n%s\n%s", base, again)
	}
	variants := map[string]string{
		"blank line": "\n" + hashBase,
		"comment":    strings.Replace(hashBase, "A(I) = REAL(I)", "A(I) = REAL(I)   ! fill", 1),
		"decl order": strings.Replace(hashBase, "Shared Integer S\nShared Real A(8)\n", "Shared Real A(8)\nShared Integer S\n", 1),
	}
	for name, src := range variants {
		if src == hashBase {
			t.Fatalf("%s: the variant is the base text", name)
		}
		if Key(forcelang.MustParse(src)) == base {
			t.Errorf("%s: a different text shares the base's key", name)
		}
	}
}

// TestKeySensitiveToBuildEnv: every variable the entry's go build
// inherits and that changes its binary forks the key, and an unchanged
// environment keeps it.
func TestKeySensitiveToBuildEnv(t *testing.T) {
	prog := forcelang.MustParse(hashBase)
	for _, v := range []string{"GOFLAGS", "GOARCH", "GOAMD64", "GOEXPERIMENT", "CGO_ENABLED", "GOTOOLCHAIN"} {
		t.Setenv(v, "")
	}
	base := Key(prog)
	if again := Key(prog); again != base {
		t.Fatalf("one environment, two keys:\n%s\n%s", base, again)
	}
	for v, val := range map[string]string{
		"GOFLAGS":      "-race",
		"GOARCH":       "arm64",
		"GOAMD64":      "v3",
		"GOEXPERIMENT": "loopvar",
		"CGO_ENABLED":  "0",
		"GOTOOLCHAIN":  "local",
	} {
		t.Run(v, func(t *testing.T) {
			t.Setenv(v, val)
			if Key(prog) == base {
				t.Errorf("%s=%s did not change the key", v, val)
			}
		})
	}
}

// TestKeySensitiveToSemantics: a changed literal, bound, or statement
// must fork the key.
func TestKeySensitiveToSemantics(t *testing.T) {
	base := Key(forcelang.MustParse(hashBase))
	variants := map[string]string{
		"literal": strings.Replace(hashBase, "S = 1", "S = 2", 1),
		"bound":   strings.Replace(hashBase, "I = 1, 8", "I = 1, 7", 1),
		"sched":   strings.ReplaceAll(hashBase, "Presched", "Selfsched"),
		"dim":     strings.Replace(hashBase, "A(8)", "A(9)", 1),
	}
	for name, src := range variants {
		if got := Key(forcelang.MustParse(src)); got == base {
			t.Errorf("%s change did not change the key", name)
		}
	}
}

// TestOptionsDoNotForkTheKey: the four runtime options are arguments of
// the one binary — a default (unset or spelled out) adds nothing to the
// child's `-np N`, anything else is passed in forcerun's spelling — and
// Ensure under any of them is the same entry, built once.
func TestOptionsDoNotForkTheKey(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	c := openTestCache(t)
	prog := forcelang.MustParse(hashBase)
	for _, tc := range []struct {
		opts Options
		args []string
	}{
		{Options{}, []string{"-np", "3"}},
		{Options{Selfsched: sched.SelfLock, Reduce: reduce.PrivateSlots, Barrier: barrier.TwoLock, Askfor: engine.StealingPool},
			[]string{"-np", "3"}},
		{Options{Barrier: barrier.CentralSense}, []string{"-np", "3", "-barrier", "sense"}},
		{Options{Reduce: reduce.Critical, Selfsched: sched.Chunk, Askfor: engine.MonitorPool},
			[]string{"-np", "3", "-reduce", "critical", "-selfsched", "selfsched-chunk", "-askfor", "monitor"}},
	} {
		e, err := c.Ensure(prog, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if e.Key != Key(prog) {
			t.Errorf("%+v: entry key %s, want the text's %s", tc.opts, e.Key, Key(prog))
		}
		if got := e.args(3); !slices.Equal(got, tc.args) {
			t.Errorf("%+v: child arguments %q, want %q", tc.opts, got, tc.args)
		}
		if out, err := run(e, 3); err != nil || out != "" {
			t.Errorf("%+v: run printed %q, %v", tc.opts, out, err)
		}
	}
	if s := c.Stats(); s.Builds != 1 {
		t.Errorf("four option values built %d binaries: %v", s.Builds, s)
	}
}

// TestHandBuiltProgramNotKeyed: a tree that did not come from Parse has
// no text, and is refused rather than filed under the empty text's key.
func TestHandBuiltProgramNotKeyed(t *testing.T) {
	prog := *forcelang.MustParse(hashBase)
	prog.Source = ""
	if _, err := openTestCache(t).Ensure(&prog, Options{}); err == nil || !strings.Contains(err.Error(), "no source text") {
		t.Errorf("Ensure = %v, want the no-source-text refusal", err)
	}
}
