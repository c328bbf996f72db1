package interp

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/forcelang"
	"repro/internal/machine"
)

// The asynchronous-variable statement rows: N Produce + Consume statement
// pairs per process.  uncontended: each process hands itself values
// through its own cell, so no statement ever waits.  ping-pong: process 0
// hands each value to process 1 and back, so at np=2 every Consume waits
// for its partner.
var asyncRows = []struct {
	name string
	np   int
	body string
}{
	{"uncontended/np=1", 1, asyncUncontended},
	{"uncontended/np=2", 2, asyncUncontended},
	{"ping-pong/np=2", 2, `  IF (ME .EQ. 0) THEN
    Produce P = K
    Consume Q into X
  ELSE
    Consume P into X
    Produce Q = X
  END IF
`},
}

const asyncUncontended = `  Produce C(ME + 1) = K
  Consume C(ME + 1) into X
`

// asyncStatementRun compiles a loop of n iterations of body on the
// chunked tier onto a persistent force of np processes and returns one Run
// of it.  Each process's context and frame are built once, so a Run
// allocates only what the statements do.
func asyncStatementRun(tb testing.TB, np, n int, body string) func() {
	tb.Helper()
	prog := forcelang.MustParse(fmt.Sprintf(`Force ASYNC of NP ident ME
Async Integer C(2), P, Q
Private Integer K, X
End Declarations
DO K = 1, %d
%sEnd DO
Join
`, n, body))
	cfg := Config{NP: np, Machine: machine.Native, Stdout: io.Discard}
	res, err := resolveProgram(prog)
	if err != nil {
		tb.Fatal(err)
	}
	f := newForce(cfg)
	tb.Cleanup(f.Close)
	in := newCInstance(prog, cfg, res, f)
	cp, err := compileProgram(in)
	if err != nil {
		tb.Fatal(err)
	}
	prs, frs := make([]cproc, np), make([]*frame, np)
	for i := range prs {
		prs[i].in, frs[i] = in, cp.main.newFrame(int64(i))
	}
	program := func(p *core.Proc) {
		pr := &prs[p.ID()]
		pr.p = p
		runBody(cp.main.body, pr, frs[p.ID()])
	}
	return func() { f.Run(program) }
}

// TestAsyncStatementSteadyStateZeroAllocs: on a running force a Produce or
// Consume statement allocates nothing, whether its first try succeeds or
// it waits for a partner.
func TestAsyncStatementSteadyStateZeroAllocs(t *testing.T) {
	for _, row := range asyncRows {
		run := asyncStatementRun(t, row.np, 64, row.body)
		run()
		if avg := testing.AllocsPerRun(50, run); avg != 0 {
			t.Errorf("%s: a Run of 64 statement pairs allocates %v objects, want 0", row.name, avg)
		}
	}
}

// BenchmarkAsyncStatement is the asynchronous-variable statements'
// committed row on the chunked tier: ns per Produce + Consume statement
// pair, one op = one pair per process (asyncRows).  Against
// core.BenchmarkAsyncHandoff, the same transfers through the Go API, it
// prices what the interpreter adds to a cell: the statement closures and
// the watchdog bookkeeping of a statement that waits.
func BenchmarkAsyncStatement(b *testing.B) {
	for _, row := range asyncRows {
		b.Run(row.name, func(b *testing.B) {
			run := asyncStatementRun(b, row.np, b.N, row.body)
			b.ReportAllocs()
			b.ResetTimer()
			run()
		})
	}
}
