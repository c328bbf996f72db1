package interp

// fuse_test.go — coverage for the fusion pass: the fusion corpus is
// byte-identical across every engine with fusion on and off, a fault in
// the middle of a fused region reports the faulting member's line under
// every configuration, and the pass's compile-time decisions (what
// fused, what declined, and why) are pinned through Config.FuseLog.

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/forcelang"
	"repro/internal/reduce"
)

// fuseRunModes describes one execution configuration of the fusion
// matrix: an engine plus the fusion switch.
type fuseMode struct {
	name   string
	exec   ExecMode
	noFuse bool
}

var fuseModes = []fuseMode{
	{"tree", ExecTree, false},
	{"compiled", ExecCompiled, false},
	{"chunked-fused", ExecChunked, false},
	{"chunked-nofuse", ExecChunked, true},
}

// TestFusionEquivalence runs the fusion corpus under every engine, with
// fusion on and off, at np ∈ {1, 2, 3, 8}: sorted output must match the
// tree walker's exactly.  Fusion — a ridden Barrier included — is a
// barrier count optimization, never a semantics change.
func TestFusionEquivalence(t *testing.T) {
	for _, tc := range corpus.Fusion {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := forcelang.Parse(tc.Src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, np := range []int{1, 2, 3, 8} {
				outs := map[string]string{}
				for _, m := range fuseModes {
					var sb strings.Builder
					cfg := Config{NP: np, Stdout: &sb, Exec: m.exec, NoFuse: m.noFuse}
					if err := Run(prog, cfg); err != nil {
						t.Fatalf("np=%d %s: %v", np, m.name, err)
					}
					outs[m.name] = sb.String()
				}
				tree := sortedLines(outs["tree"])
				for _, m := range fuseModes[1:] {
					got := sortedLines(outs[m.name])
					if len(got) != len(tree) {
						t.Fatalf("np=%d: line counts differ: tree %d, %s %d\ntree:\n%s\n%s:\n%s",
							np, len(tree), m.name, len(got), outs["tree"], m.name, outs[m.name])
					}
					for i := range tree {
						if got[i] != tree[i] {
							t.Errorf("np=%d line %d: tree %q, %s %q", np, i, tree[i], m.name, got[i])
						}
					}
				}
			}
		})
	}
}

// TestFusionFaultParity pins the abort contract inside a fused region:
// a fault striking in the second member (on one process only, once
// np > 1), or in a barrier section riding a closing collective, aborts
// the whole force with the identical message — naming the faulting
// statement's source line — whether the region fused or not.
func TestFusionFaultParity(t *testing.T) {
	for _, tc := range corpus.FusionFaults {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			prog, err := forcelang.Parse(tc.Src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, np := range []int{1, 2, 3, 8} {
				var ref error
				for _, m := range fuseModes {
					var sb strings.Builder
					err := Run(prog, Config{NP: np, Stdout: &sb, Exec: m.exec, NoFuse: m.noFuse})
					if err == nil {
						t.Fatalf("np=%d %s: no error", np, m.name)
					}
					if !strings.Contains(err.Error(), "force runtime: line 10:") {
						t.Errorf("np=%d %s: error %q does not name the faulting statement's line", np, m.name, err)
					}
					if ref == nil {
						ref = err
					} else if err.Error() != ref.Error() {
						t.Errorf("np=%d %s: error diverges:\nwant %q\ngot  %q", np, m.name, ref, err)
					}
				}
			}
		})
	}
}

// fuseLogs runs prog on the chunk tier collecting every FuseLog line.
func fuseLogs(t *testing.T, src string, cfg Config) []string {
	t.Helper()
	prog, err := forcelang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var mu sync.Mutex
	var logs []string
	cfg.FuseLog = func(msg string) {
		mu.Lock()
		logs = append(logs, msg)
		mu.Unlock()
	}
	if cfg.NP == 0 {
		cfg.NP = 2
	}
	var sb strings.Builder
	cfg.Stdout = &sb
	if err := Run(prog, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	return logs
}

func logsContain(logs []string, want string) bool {
	for _, l := range logs {
		if strings.Contains(l, want) {
			return true
		}
	}
	return false
}

// TestFusionDecisions pins the pass's verdict on every fusion corpus
// program: the shaped-to-fuse programs fuse (with the expected member
// count or folded reduction), and the must-NOT-fuse programs decline
// for the expected reason.
func TestFusionDecisions(t *testing.T) {
	expect := map[string]string{
		"fuse-presched-chain":              "fused 3 DOALLs",
		"fuse-overlap-declines":            "conflict on A",
		"fuse-gsum-tail":                   "GSUM at line",
		"fuse-gmax-real":                   "GMAX at line",
		"fuse-reduce-feeds-doall":          "GSUM at line",
		"fuse-selfsched-pair":              "fused 2 DOALLs",
		"fuse-selfsched-conflict-declines": "conflict on A",
		"fuse-mixed-partition":             "fused 2 DOALLs",
		"ride-shared-overwrite":            "line 15: Barrier rides the GSUM join at line 14",
		"ride-private-target":              "line 12: Barrier rides the GSUM join at line 11",
		"ride-standalone-reductions":       "line 22: Barrier rides the GAND at line 21",
		"ride-doall-exits":                 "line 15: Barrier rides the DOALL exit at line 10",
		"ride-nested-lists":                "line 37: Barrier rides the DOALL exit at line 34",
	}
	for _, tc := range corpus.Fusion {
		want, ok := expect[tc.Name]
		if !ok {
			t.Errorf("%s: no expected fusion verdict — add one", tc.Name)
			continue
		}
		logs := fuseLogs(t, tc.Src, Config{})
		if !logsContain(logs, want) {
			t.Errorf("%s: fusion logs %q lack %q", tc.Name, logs, want)
		}
	}
}

// TestFusionDeclineReasons drives each legality check's decline branch
// with a minimal program and pins the narrated reason.
func TestFusionDeclineReasons(t *testing.T) {
	tests := []struct {
		name string
		src  string
		cfg  Config
		want []string
	}{
		{"mixed-scheduling", `Force D of NP ident ME
Shared Real A(32)
Shared Real B(32)
Private Integer I
End Declarations
Presched DO I = 1, 32
  A(I) = REAL(I)
End Presched DO
Selfsched DO I = 1, 32
  B(I) = REAL(I)
End Selfsched DO
Join
`, Config{}, []string{"mixed scheduling"}},
		{"bounds-differ", `Force D of NP ident ME
Shared Real A(32)
Shared Real B(48)
Private Integer I
End Declarations
Presched DO I = 1, 32
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 48
  B(I) = REAL(I)
End Presched DO
Join
`, Config{}, []string{"bounds differ"}},
		// The accumulator S is the second member's upper bound: unfused,
		// member 2 sees S after member 1's exit barrier; fused it would
		// not.  The canonical bounds match, so the decline comes from the
		// bounds-read-region-write check.
		{"bounds-read-written", `Force D of NP ident ME
Shared Real A(64)
Shared Real B(64)
Shared Integer S
Private Integer I
End Declarations
Barrier
  S = 8
End Barrier
Presched DO I = 1, S
  A(I) = REAL(I)
  S = S + 1
End Presched DO
Presched DO I = 1, S
  B(I) = REAL(I)
End Presched DO
Join
`, Config{}, []string{"bounds read S"}},
		// Reading a by-reference parameter classifies (noBulk), but the
		// unknown aliasing forbids fusing across it.
		{"parameter-region", `Force D of NP ident ME
Shared Real A(32)
Shared Real B(32)
End Declarations
Call W(A, B)
Join
Forcesub W(X, Y)
Shared Real X(32)
Shared Real C(32)
Shared Real Y(32)
Shared Real E(32)
Private Integer I
End Declarations
Presched DO I = 1, 32
  C(I) = X(I)
End Presched DO
Presched DO I = 1, 32
  E(I) = Y(I)
End Presched DO
Endsub
`, Config{}, []string{"parameter references in the region"}},
		// A logical tail cannot fold, but the members still fuse among
		// themselves: both the decline and the smaller region's success
		// are narrated.
		{"logical-tail", `Force D of NP ident ME
Shared Real A(32)
Shared Real B(32)
Shared Logical L
Private Integer I
End Declarations
Presched DO I = 1, 32
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 32
  B(I) = REAL(I)
End Presched DO
GAND L = I .GT. 0
Join
`, Config{}, []string{"logical reduction", "fused 2 DOALLs"}},
		// REAL sums fold in pid order, which only the slots strategy
		// reproduces: under the critical baseline the tail stays on its
		// own episode (the members still fuse).
		{"real-gsum-critical", `Force D of NP ident ME
Shared Real A(32)
Shared Real B(32)
Shared Real T
Private Integer I
End Declarations
Presched DO I = 1, 32
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 32
  B(I) = REAL(I)
End Presched DO
GSUM T = REAL(I) * 0.5
Join
`, Config{Reduce: reduce.Critical}, []string{"REAL GSUM folds in pid order", "fused 2 DOALLs"}},
		{"real-gsum-slots-folds", `Force D of NP ident ME
Shared Real A(32)
Shared Real B(32)
Shared Real T
Private Integer I
End Declarations
Presched DO I = 1, 32
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 32
  B(I) = REAL(I)
End Presched DO
GSUM T = REAL(I) * 0.5
Join
`, Config{Reduce: reduce.PrivateSlots}, []string{"GSUM at line"}},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			logs := fuseLogs(t, tc.src, tc.cfg)
			for _, want := range tc.want {
				if !logsContain(logs, want) {
					t.Errorf("fusion logs %q lack %q", logs, want)
				}
			}
		})
	}
}

// TestFusionDisabledConfigs pins when the pass must stay off: NoFuse,
// the per-iteration engines, and an iteration-level trace all run the
// corpus without emitting a single fusion log line.  (The chunk tier's
// per-DOALL narration — the partition, the span-checked references —
// shares the sink and is independent of the pass.)
func TestFusionDisabledConfigs(t *testing.T) {
	src := corpus.Fusion[0].Src
	for _, cfg := range []Config{
		{NoFuse: true},
		{Exec: ExecCompiled},
		{Exec: ExecTree},
	} {
		for _, l := range fuseLogs(t, src, cfg) {
			if !strings.Contains(l, ": DOALL ") {
				t.Errorf("config %+v: fusion pass ran: %q", cfg, l)
			}
		}
	}
}
