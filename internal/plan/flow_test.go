package plan_test

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/forcelang"
	"repro/internal/interp"
	"repro/internal/plan"
	"repro/internal/vet"
)

// oneFlow reads the facts of every kind: a sequential DO's index, a
// constant divisor, a subroutine walked inline and on its own, a fused
// run.
const oneFlow = `Force ONEFLOW of NP ident ME
Shared Integer A(64), B(64), TOT
Private Integer I, R, K
End Declarations
K = 3
DO R = 1, 4
  Presched DO I = 1, 64
    A(I) = A(I) + R
  End Presched DO
  Presched DO I = 1, 64
    B(I) = MOD(I, K) + I / K
  End Presched DO
End DO
Barrier
  TOT = 0
  DO I = 1, 64
    TOT = TOT + A(I) + B(I)
  End DO
End Barrier
Call SHOW(K)
Join
Forcesub SHOW(N)
Private Integer N
End Declarations
Barrier
  Print 'total', TOT * N
End Barrier
Endsub
`

// TestOneFlowPerProgram: the flow analysis is made once per program,
// however many readers ask and however concurrently — forcevet, two runs
// of the closure compiler at once and the Go emitter share one — and the
// readers agree on what it decided.  (CI's race job runs this under
// -race.)
func TestOneFlowPerProgram(t *testing.T) {
	prog := forcelang.MustParse(oneFlow)
	before := plan.FlowWalks.Load()
	if diags, err := vet.Analyze(prog); err != nil || len(diags) != 0 {
		t.Fatalf("vet: %v %v", diags, err)
	}
	if err := interp.Run(prog, interp.Config{NP: 2, Stdout: io.Discard}); err != nil {
		t.Fatal(err)
	}
	if n := plan.FlowWalks.Load() - before; n != 1 {
		t.Errorf("vet.Analyze then interp.Run walked the flow %d times, want 1", n)
	}

	prog = forcelang.MustParse(oneFlow)
	before = plan.FlowWalks.Load()
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	var (
		wg       sync.WaitGroup
		outs     [2]strings.Builder
		logs     [2][]string
		runErrs  [2]error
		emitted  []string
		emitErr  error
		vetDiags []vet.Diagnostic
		vetErr   error
	)
	wg.Add(4)
	go func() {
		defer wg.Done()
		vetDiags, vetErr = vet.Analyze(prog)
	}()
	for k := range outs {
		k := k
		go func() {
			defer wg.Done()
			runErrs[k] = interp.Run(prog, interp.Config{NP: 2 + k, Stdout: &outs[k],
				FuseLog: func(msg string) { logs[k] = append(logs[k], msg) }})
		}()
	}
	go func() {
		defer wg.Done()
		_, emitted, emitErr = codegen.Lower(prog, codegen.Options{})
	}()
	wg.Wait()
	if n := plan.FlowWalks.Load() - before; n != 1 {
		t.Errorf("four concurrent readers walked the flow %d times, want 1", n)
	}
	if vetErr != nil || len(vetDiags) != 0 || emitErr != nil {
		t.Fatalf("vet %v %v, codegen %v", vetDiags, vetErr, emitErr)
	}
	for k := range outs {
		if runErrs[k] != nil || outs[k].String() != "total 4128\n" {
			t.Errorf("run %d: printed %q, error %v", k, outs[k].String(), runErrs[k])
		}
	}
	want := strings.Join(logs[0], "\n")
	if !strings.Contains(want, "line 7: DOALL partition=block") || !strings.Contains(want, "line 10: DOALL span-checked 1 of 1 element references, block-evaluated") {
		t.Errorf("the facts did not reach the plan:\n%s", want)
	}
	for _, got := range []string{strings.Join(logs[1], "\n"), strings.Join(emitted, "\n")} {
		if got != want {
			t.Errorf("the readers disagree:\n%s\nand\n%s", got, want)
		}
	}
	// A run stopped before it starts still plans from the shared facts.
	var late []string
	if err := interp.Run(prog, interp.Config{NP: 2, Context: dead, FuseLog: func(msg string) { late = append(late, msg) }}); !errors.Is(err, context.Canceled) {
		t.Fatalf("the run started: %v", err)
	}
	if got := strings.Join(late, "\n"); got != want || plan.FlowWalks.Load()-before != 1 {
		t.Errorf("a later run narrates\n%s\nwant\n%s", got, want)
	}
}
