package interp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/forcelang"
	"repro/internal/sched"
)

// treeSrc expands a binary tree of depth 5 through the language-level
// Askfor; every node bumps a shared counter in a critical section, so the
// printed count proves exactly-once execution and termination.
const treeSrc = `Force TREE of NP ident ME
Shared Integer COUNT
Private Integer WORK
End Declarations
      Barrier
        COUNT = 0
      End Barrier
      Askfor WORK = 1
        Critical C
          COUNT = COUNT + 1
        End Critical
        IF (WORK .LT. 5) THEN
          Put WORK + 1
          Put WORK + 1
        End IF
      End Askfor
      Barrier
        Print 'nodes =', COUNT
      End Barrier
Join
`

// TestAskforTreeOnEveryDistribution runs the language-level Askfor on
// both engine pool disciplines, crossed with every selfsched loop
// discipline, over several force sizes.
func TestAskforTreeOnEveryDistribution(t *testing.T) {
	prog := forcelang.MustParse(treeSrc)
	for _, pool := range engine.PoolKinds() {
		for _, selfsched := range []sched.Kind{sched.SelfLock, sched.SelfAtomic, sched.Chunk} {
			for _, np := range []int{1, 4, 7} {
				name := fmt.Sprintf("%s/%s/np=%d", pool, selfsched, np)
				t.Run(name, func(t *testing.T) {
					var sb strings.Builder
					err := Run(prog, Config{NP: np, Stdout: &sb, Askfor: pool, Selfsched: selfsched})
					if err != nil {
						t.Fatal(err)
					}
					if got := strings.TrimSpace(sb.String()); got != "nodes = 31" {
						t.Errorf("out = %q, want \"nodes = 31\" (2^5-1 tree nodes)", got)
					}
				})
			}
		}
	}
}

// TestSelfschedNonDefaultLoops runs an ordinary selfscheduled program on
// the non-default disciplines and checks the numeric result is unchanged.
func TestSelfschedNonDefaultLoops(t *testing.T) {
	src := `Force S of NP ident ME
Shared Integer TOTAL
Private Integer I
End Declarations
      Barrier
        TOTAL = 0
      End Barrier
      Selfsched DO I = 1, 100
        Critical L
          TOTAL = TOTAL + I
        End Critical
      End Selfsched DO
      Barrier
        Print 'total =', TOTAL
      End Barrier
Join
`
	prog := forcelang.MustParse(src)
	for _, kind := range []sched.Kind{sched.SelfAtomic, sched.Chunk} {
		var sb strings.Builder
		if err := Run(prog, Config{NP: 6, Stdout: &sb, Selfsched: kind}); err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(sb.String()); got != "total = 5050" {
			t.Errorf("%s: out = %q, want \"total = 5050\"", kind, got)
		}
	}
}
