package interp

// fuse_test.go — coverage for the fusion pass: the fusion corpus is
// byte-identical across every engine with fusion on and off, a fault in
// the middle of a fused region reports the faulting member's line under
// every configuration, and the pass's compile-time decisions (what
// fused, what declined, and why) are pinned through Config.FuseLog.

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/forcelang"
	"repro/internal/reduce"
	"repro/internal/trace"
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
			tierEquivalence(t, tc, reduce.PrivateSlots)
		})
	}
}

// TestReductionEquivalence runs the standalone-reduction corpus the same
// way under both reduction strategies: its results are exact, so every
// engine under either strategy must print what the tree walker prints
// under the default one — the strategy, like fusion, is never a semantics
// change.
func TestReductionEquivalence(t *testing.T) {
	for _, tc := range corpus.Reductions {
		tc := tc
		t.Run(tc.Name, func(t *testing.T) {
			t.Parallel()
			tierEquivalence(t, tc, reduce.Kinds()...)
		})
	}
}

// tierEquivalence runs tc under every fuse mode and each of the strategies
// at np ∈ {1, 2, 3, 8} and requires the sorted output lines of the tree
// walker under the first strategy from all of them.
func tierEquivalence(t *testing.T, tc corpus.Program, strategies ...reduce.Kind) {
	prog, err := forcelang.Parse(tc.Src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, np := range []int{1, 2, 3, 8} {
		var tree []string
		var treeOut string
		for _, rk := range strategies {
			for _, m := range fuseModes {
				var sb strings.Builder
				cfg := Config{NP: np, Stdout: &sb, Exec: m.exec, NoFuse: m.noFuse, Reduce: rk}
				if err := Run(prog, cfg); err != nil {
					t.Fatalf("np=%d %s %s: %v", np, m.name, rk, err)
				}
				got := sortedLines(sb.String())
				if tree == nil {
					tree, treeOut = got, sb.String()
					continue
				}
				if len(got) != len(tree) {
					t.Fatalf("np=%d: line counts differ: tree %d, %s %s %d\ntree:\n%s\n%s:\n%s",
						np, len(tree), m.name, rk, len(got), treeOut, m.name, sb.String())
				}
				for i := range tree {
					if got[i] != tree[i] {
						t.Errorf("np=%d line %d: tree %q, %s %s %q", np, i, tree[i], m.name, rk, got[i])
					}
				}
			}
		}
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
		// A fused tail and a reduction on its own fold the same way under
		// either strategy, so a REAL sum folds into the join under the
		// critical baseline too.
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
`, Config{Reduce: reduce.Critical}, []string{"fused 2 DOALL(s) + GSUM at line 13 into one join"}},
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

// TestTracedReduceParticipation: every collective that carries a reduction
// — a fused tail as much as a reduction statement on its own — records
// ReduceEnter and ReduceLeave in every process, so the participation check
// is not vacuous on a fused program, and a traced run shows the same
// participation with the fusion pass on and off; a close that carries no
// reduction records neither.
func TestTracedReduceParticipation(t *testing.T) {
	read := func(path string) string {
		src, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "programs", path))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	// 40 rounds tell what 4000 do, at a hundredth of the log.
	rounds := strings.Replace(read("sync-bound/fused-rounds.force"), "DO R = 1, 4000", "DO R = 1, 40", 1)
	if !strings.Contains(rounds, "DO R = 1, 40\n") {
		t.Fatal("fused-rounds.force no longer loops 4000 rounds: adjust the substitution")
	}
	for _, tc := range []struct {
		name, src  string
		reductions int // reduction episodes per run
	}{
		{"fused-rounds", rounds, 40},
		{"reduce-chain", read("script-cold/reduce-chain.force"), 2},
		{"no-reduction", `Force NR of NP ident ME
Shared Integer A(16), B(16)
Private Integer I
End Declarations
Presched DO I = 1, 16
  A(I) = I
End Presched DO
Presched DO I = 1, 16
  B(I) = 2 * I
End Presched DO
Join
`, 0},
	} {
		prog := forcelang.MustParse(tc.src)
		for _, np := range []int{1, 2, 3, 8} {
			ops := map[bool]map[string]int{}
			for _, noFuse := range []bool{false, true} {
				rec := trace.New(0)
				fused := 0
				cfg := Config{NP: np, Stdout: io.Discard, Trace: rec, NoFuse: noFuse, FuseLog: func(msg string) {
					if strings.Contains(msg, "fused") {
						fused++
					}
				}}
				if err := Run(prog, cfg); err != nil {
					t.Fatalf("%s np=%d nofuse=%v: %v", tc.name, np, noFuse, err)
				}
				if !noFuse && fused == 0 {
					t.Errorf("%s: nothing fused — the fused side of the comparison is vacuous", tc.name)
				}
				ev := rec.Events()
				if err := trace.CheckReduceParticipation(ev, np); err != nil {
					t.Errorf("%s np=%d nofuse=%v: %v", tc.name, np, noFuse, err)
				}
				ops[noFuse] = map[string]int{}
				for _, e := range trace.Filter(ev, trace.ReduceEnter) {
					ops[noFuse][e.Name]++
				}
				enters, leaves := len(trace.Filter(ev, trace.ReduceEnter)), len(trace.Filter(ev, trace.ReduceLeave))
				if enters != tc.reductions*np || leaves != enters {
					t.Errorf("%s np=%d nofuse=%v: %d reduce-enter and %d reduce-leave events, want %d each",
						tc.name, np, noFuse, enters, leaves, tc.reductions*np)
				}
			}
			if !reflect.DeepEqual(ops[false], ops[true]) {
				t.Errorf("%s np=%d: participation differs: fused %v, unfused %v", tc.name, np, ops[false], ops[true])
			}
		}
	}
}
