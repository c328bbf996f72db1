package interp

import (
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/barrier"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/machine"
	"repro/internal/trace"
)

func run(t *testing.T, src string, cfg Config) string {
	t.Helper()
	prog, err := forcelang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var out strings.Builder
	cfg.Stdout = &out
	if err := Run(prog, cfg); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.String()
}

// sortedLines sorts output lines: force processes print in nondeterministic
// order.
func sortedLines(s string) []string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) == 1 && lines[0] == "" {
		return nil
	}
	sort.Strings(lines)
	return lines
}

func TestHelloEveryProcess(t *testing.T) {
	out := run(t, `Force HELLO of NP ident ME
End Declarations
Print 'hello from', ME, 'of', NP
Join
`, Config{NP: 4})
	lines := sortedLines(out)
	if len(lines) != 4 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	for i, l := range lines {
		want := "hello from " + string(rune('0'+i)) + " of 4"
		if l != want {
			t.Errorf("line %d = %q, want %q", i, l, want)
		}
	}
}

func TestArithmeticAndIntrinsics(t *testing.T) {
	out := run(t, `Force CALC of NP ident ME
Private Real X
Private Integer K
End Declarations
IF (ME .EQ. 0) THEN
  X = SQRT(2.0) * SQRT(2.0)
  K = NINT(X) + MOD(7, 4) + MIN(9, 2) + MAX(1, 3) - INT(1.9)
  Print 'k =', K
  Print 'neg', -K, ABS(-2.5), REAL(3)
  Print 'logic', 1 .LT. 2 .AND. .NOT. (2.0 .GE. 3.0)
End IF
Join
`, Config{NP: 3})
	lines := sortedLines(out)
	want := []string{"k = 9", "logic T", "neg -9 2.5 3.0"}
	if len(lines) != 3 {
		t.Fatalf("lines: %q", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %q, want %q", lines[i], want[i])
		}
	}
}

// TestIntOfInteger: INT returns an INTEGER argument unchanged on every
// engine, in a block-evaluated DOALL body too (its argument varies with
// the index, so it is not hoisted); through REAL, 2^53 + 1 would print
// as 2^53 and 2^53 + 5 as 2^53 + 4.
func TestIntOfInteger(t *testing.T) {
	src := `Force INTI of NP ident ME
Shared Integer K, A(4)
Private Integer I
End Declarations
Barrier
  K = 9007199254740993
End Barrier
Presched DO I = 1, 4
  A(I) = INT(K + I)
End Presched DO
Barrier
  Print INT(K), A(1), A(4), INT(-7), INT(2.9)
End Barrier
Join
`
	for _, mode := range ExecModes() {
		out := run(t, src, Config{NP: 2, Exec: mode})
		if want := "9007199254740993 9007199254740994 9007199254740997 -7 2\n"; out != want {
			t.Errorf("%s: printed %q, want %q", mode, out, want)
		}
	}
}

func TestPreschedDoAllSum(t *testing.T) {
	out := run(t, `Force SUM of NP ident ME
Shared Integer TOTAL
Private Integer I
End Declarations
Barrier
TOTAL = 0
End Barrier
Presched DO I = 1, 100
  Critical CSUM
    TOTAL = TOTAL + I
  End Critical
End Presched DO
Barrier
Print 'total', TOTAL
End Barrier
Join
`, Config{NP: 5})
	if got := strings.TrimSpace(out); got != "total 5050" {
		t.Errorf("out = %q", got)
	}
}

func TestSelfschedWithStepAndArray(t *testing.T) {
	out := run(t, `Force ARR of NP ident ME
Shared Integer A(50)
Shared Integer S
Private Integer I
End Declarations
Selfsched DO I = 1, 50, 1
  A(I) = I * 2
End Selfsched DO
Barrier
S = 0
End Barrier
Presched DO I = 1, 50
  Critical L
    S = S + A(I)
  End Critical
End Presched DO
Barrier
Print S
End Barrier
Join
`, Config{NP: 4})
	if got := strings.TrimSpace(out); got != "2550" {
		t.Errorf("out = %q", got)
	}
}

func TestDoublyNestedDoall(t *testing.T) {
	out := run(t, `Force MAT of NP ident ME
Shared Real M(6,7)
Shared Real S
Private Integer I, J
End Declarations
Presched DO I = 1, 6 also J = 1, 7
  M(I, J) = REAL(I) + REAL(J) / 10.0
End Presched DO
Barrier
S = 0.0
End Barrier
Selfsched DO I = 1, 6
  DO J = 1, 7
    Critical L
      S = S + M(I, J)
    End Critical
  End DO
End Selfsched DO
Barrier
Print NINT(S * 10.0)
End Barrier
Join
`, Config{NP: 3})
	// sum = 7*(1+..+6) + 6*(0.1+..+0.7) = 147 + 16.8 = 163.8
	if got := strings.TrimSpace(out); got != "1638" {
		t.Errorf("out = %q", got)
	}
}

func TestBarrierSectionRunsOnce(t *testing.T) {
	out := run(t, `Force B of NP ident ME
Shared Integer CNT
End Declarations
Barrier
CNT = CNT + 1
End Barrier
Barrier
CNT = CNT + 1
End Barrier
Barrier
Print 'cnt', CNT
End Barrier
Join
`, Config{NP: 6})
	if got := strings.TrimSpace(out); got != "cnt 2" {
		t.Errorf("out = %q", got)
	}
}

func TestProduceConsumePipeline(t *testing.T) {
	out := run(t, `Force PIPE of NP ident ME
Async Integer V
Shared Integer SUM
Private Integer I, X
End Declarations
IF (ME .EQ. 0) THEN
  DO I = 1, 20
    Produce V = I
  End DO
End IF
IF (ME .EQ. 1) THEN
  SUM = 0
  DO I = 1, 20
    Consume V into X
    SUM = SUM + X
  End DO
  Print 'sum', SUM
End IF
Join
`, Config{NP: 2})
	if got := strings.TrimSpace(out); got != "sum 210" {
		t.Errorf("out = %q", got)
	}
}

func TestCopyAndVoidAndIsFullSemantics(t *testing.T) {
	out := run(t, `Force CV of NP ident ME
Async Real V
Private Real A, B
End Declarations
IF (ME .EQ. 0) THEN
  Produce V = 4.5
  Copy V into A
  Consume V into B
  Print A, B
  Produce V = 1.0
  Void V
  Produce V = 2.0
  Consume V into A
  Print A
End IF
Join
`, Config{NP: 1})
	lines := sortedLines(out)
	want := []string{"2.0", "4.5 4.5"}
	if len(lines) != 2 || lines[0] != want[0] || lines[1] != want[1] {
		t.Errorf("lines = %q, want %q", lines, want)
	}
}

func TestPcaseDistribution(t *testing.T) {
	out := run(t, `Force PC of NP ident ME
Shared Integer A, B, C
Shared Integer N
End Declarations
Barrier
N = 3
End Barrier
Pcase
Usect
  A = A + 1
Csect (N .GT. 2)
  B = B + 1
Csect (N .GT. 5)
  C = C + 100
End Pcase
Barrier
Print A, B, C
End Barrier
Join
`, Config{NP: 2})
	if got := strings.TrimSpace(out); got != "1 1 0" {
		t.Errorf("out = %q", got)
	}
}

func TestSelfschedPcase(t *testing.T) {
	out := run(t, `Force PCS of NP ident ME
Shared Integer A, B
End Declarations
Pcase Selfsched
Usect
  A = 7
Usect
  B = 9
End Pcase
Barrier
Print A, B
End Barrier
Join
`, Config{NP: 3})
	if got := strings.TrimSpace(out); got != "7 9" {
		t.Errorf("out = %q", got)
	}
}

func TestSubroutineCallByReference(t *testing.T) {
	out := run(t, `Force SUBS of NP ident ME
Shared Real A(10)
Shared Real TOTAL
Private Integer I
End Declarations
Presched DO I = 1, 10
  A(I) = REAL(I)
End Presched DO
Barrier
End Barrier
Call SCALE2(A)
Call SUMUP(A, TOTAL)
Barrier
Print NINT(TOTAL)
End Barrier
Join
Forcesub SCALE2(X)
Shared Real X(10)
Private Integer K
End Declarations
Presched DO K = 1, 10
  X(K) = X(K) * 2.0
End Presched DO
Endsub
Forcesub SUMUP(X, T)
Shared Real X(10)
Shared Real T
Private Integer K
End Declarations
Barrier
T = 0.0
End Barrier
Presched DO K = 1, 10
  Critical TL
    T = T + X(K)
  End Critical
End Presched DO
Barrier
End Barrier
Endsub
`, Config{NP: 4})
	if got := strings.TrimSpace(out); got != "110" {
		t.Errorf("out = %q", got)
	}
}

func TestElementArgumentAliases(t *testing.T) {
	out := run(t, `Force ELEM of NP ident ME
Shared Real A(5)
End Declarations
IF (ME .EQ. 0) THEN
  A(3) = 1.0
  Call BUMP(A(3))
  Print A(3)
End IF
Join
Forcesub BUMP(X)
Shared Real X
End Declarations
X = X + 10.0
Endsub
`, Config{NP: 1})
	if got := strings.TrimSpace(out); got != "11.0" {
		t.Errorf("out = %q", got)
	}
}

func TestRuntimeErrors(t *testing.T) {
	// Uniform error sites: every process errs, at any NP, under both
	// engines.  Before the poison protocol only NP=1 was safe to test.
	for _, tc := range corpus.RuntimeErrors {
		name := tc.Name
		prog, err := forcelang.Parse(tc.Src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		for _, np := range []int{1, 2, 8} {
			for _, exec := range ExecModes() {
				if err := Run(prog, Config{NP: np, Exec: exec}); err == nil {
					t.Errorf("%s np=%d %s: no error", name, np, exec)
				} else if !strings.Contains(err.Error(), "force runtime") {
					t.Errorf("%s np=%d %s: unexpected error %v", name, np, exec, err)
				}
			}
		}
	}
}

// TestRuntimeErrorsNonUniform is the fault-containment corpus: the
// error strikes only some processes while their peers block in (or
// head toward) a collective construct.  Before the poison protocol
// every one of these hung the force ("a process which panics while its
// peers are inside a barrier leaves them blocked"); now each must
// return the force runtime error at NP in {2, 8} under both engines.
func TestRuntimeErrorsNonUniform(t *testing.T) {
	for _, tc := range corpus.NonUniform {
		name, src := tc.Name, tc.Src
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			prog, err := forcelang.Parse(src)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			for _, np := range []int{2, 8} {
				for _, exec := range ExecModes() {
					done := make(chan error, 1)
					go func() { done <- Run(prog, Config{NP: np, Exec: exec}) }()
					select {
					case err := <-done:
						if err == nil {
							t.Errorf("np=%d %s: no error", np, exec)
						} else if !strings.Contains(err.Error(), "force runtime") {
							t.Errorf("np=%d %s: unexpected error %v", np, exec, err)
						}
					case <-time.After(60 * time.Second):
						t.Fatalf("np=%d %s: force hung on a non-uniform runtime error", np, exec)
					}
				}
			}
		})
	}
}

// TestForceErrorThenCleanRunSameConfig: after an errored run, a fresh
// run of a correct program with the same configuration works — the
// interpreter-level reuse story (each interp.Run builds its own force,
// so this exercises clean creation after an abort, not force reuse;
// core-level reuse is covered in internal/core).
func TestForceErrorThenCleanRunSameConfig(t *testing.T) {
	bad := forcelang.MustParse("Force B of NP ident ME\nPrivate Integer I\nEnd Declarations\nIF (ME .EQ. 0) THEN\nI = 1 / 0\nEND IF\nBarrier\nEnd Barrier\nJoin\n")
	good := forcelang.MustParse("Force G of NP ident ME\nEnd Declarations\nBarrier\nEnd Barrier\nPrint NP\nJoin\n")
	for _, exec := range ExecModes() {
		if err := Run(bad, Config{NP: 4, Exec: exec}); err == nil {
			t.Fatalf("%s: bad program reported no error", exec)
		}
		var sb strings.Builder
		if err := Run(good, Config{NP: 4, Exec: exec, Stdout: &sb}); err != nil {
			t.Fatalf("%s: clean run after error: %v", exec, err)
		}
		if !strings.Contains(sb.String(), "4") {
			t.Fatalf("%s: clean run output %q", exec, sb.String())
		}
	}
}

func TestRunDefaults(t *testing.T) {
	prog := forcelang.MustParse("Force D of NP ident ME\nEnd Declarations\nPrint NP\nJoin\n")
	if err := Run(prog, Config{}); err != nil {
		t.Fatal(err)
	}
}

// TestAllMachinesAndBarriers runs a construct-rich program across machine
// profiles and barrier algorithms: the interpreter-level portability
// matrix.
func TestAllMachinesAndBarriers(t *testing.T) {
	src := `Force PORT of NP ident ME
Shared Integer TOTAL
Shared Integer A(40)
Async Integer V
Private Integer I, X
End Declarations
Barrier
TOTAL = 0
End Barrier
Selfsched DO I = 1, 40
  A(I) = I
End Selfsched DO
Presched DO I = 1, 40
  Critical K
    TOTAL = TOTAL + A(I)
  End Critical
End Presched DO
IF (ME .EQ. 0) THEN
  Produce V = TOTAL
End IF
IF (ME .EQ. MOD(1, NP)) THEN
  Consume V into X
  Print 'total', X
End IF
Join
`
	for _, m := range machine.All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			out := run(t, src, Config{NP: 3, Machine: m})
			if got := strings.TrimSpace(out); got != "total 820" {
				t.Errorf("%s: out = %q", m.Name, got)
			}
		})
	}
	for _, bk := range barrier.Kinds() {
		bk := bk
		t.Run(bk.String(), func(t *testing.T) {
			t.Parallel()
			out := run(t, src, Config{NP: 4, Barrier: bk})
			if got := strings.TrimSpace(out); got != "total 820" {
				t.Errorf("%v: out = %q", bk, got)
			}
		})
	}
}

func TestSharedLocalsInSubPersist(t *testing.T) {
	// A subroutine's shared local is COMMON-like: it persists across
	// calls and is shared by processes.
	out := run(t, `Force PERSIST of NP ident ME
End Declarations
Call TICK
Call TICK
Call TICK
Barrier
End Barrier
Call REPORT
Join
Forcesub TICK()
Shared Integer COUNT
End Declarations
Barrier
COUNT = COUNT + 1
End Barrier
Endsub
Forcesub REPORT()
Shared Integer COUNT
End Declarations
Barrier
Print 'count', COUNT
End Barrier
Endsub
`, Config{NP: 3})
	// COUNT is unit-local to TICK; REPORT has its own COUNT (0).
	if got := strings.TrimSpace(out); got != "count 0" {
		t.Errorf("out = %q (unit-local shared must not leak between subs)", got)
	}
}

func TestNegativeStepLoop(t *testing.T) {
	out := run(t, `Force NEG of NP ident ME
Private Integer I
Shared Integer S
End Declarations
Barrier
S = 0
End Barrier
Selfsched DO I = 10, 2, -2
  Critical L
    S = S + I
  End Critical
End Selfsched DO
Barrier
Print S
End Barrier
Join
`, Config{NP: 2})
	if got := strings.TrimSpace(out); got != "30" {
		t.Errorf("out = %q", got)
	}
}

func TestValueFormatting(t *testing.T) {
	var line forcert.Line
	for _, v := range []value{realVal(2), realVal(2.5), boolVal(true), intVal(-3)} {
		v.printTo(&line)
	}
	if got := line.String(); got != "2.0 2.5 T -3\n" {
		t.Errorf("printed %q", got)
	}
}

// TestWhileDoConvergence runs a DO WHILE convergence loop maintained by a
// barrier section — the idiom the statement exists for.
func TestWhileDoConvergence(t *testing.T) {
	out := run(t, `Force WH of NP ident ME
Shared Integer ROUNDS
Shared Logical DONE
End Declarations
Barrier
  DONE = .FALSE.
  ROUNDS = 0
End Barrier
DO WHILE (.NOT. DONE)
  Barrier
    ROUNDS = ROUNDS + 1
    IF (ROUNDS .GE. 7) THEN
      DONE = .TRUE.
    End IF
  End Barrier
End DO
Barrier
Print 'rounds', ROUNDS
End Barrier
Join
`, Config{NP: 5})
	if got := strings.TrimSpace(out); got != "rounds 7" {
		t.Errorf("out = %q", got)
	}
}

// TestWhileDoNeverEntered: a false condition skips the body entirely.
func TestWhileDoNeverEntered(t *testing.T) {
	out := run(t, `Force WH of NP ident ME
Private Integer I
End Declarations
I = 0
DO WHILE (I .GT. 0)
  I = I - 1
End DO
IF (ME .EQ. 0) THEN
  Print 'i', I
End IF
Join
`, Config{NP: 2})
	if got := strings.TrimSpace(out); got != "i 0" {
		t.Errorf("out = %q", got)
	}
}

// TestInterpWithTrace validates a whole interpreted program's barrier,
// critical and loop behaviour from the construct-event log of the default
// tier, and that observing does not change the run: a program with a
// planned, an unplanned and a fused DOALL takes the same plan (FuseLog
// lines) and executes the same construct episodes (core.Stats) with and
// without a Recorder.
func TestInterpWithTrace(t *testing.T) {
	prog := forcelang.MustParse(`Force TR of NP ident ME
Shared Integer S, T
Shared Real A(30), B(30)
Private Integer I
End Declarations
Barrier
S = 0
End Barrier
Presched DO I = 1, 30
  Critical L
    S = S + I
  End Critical
End Presched DO
Selfsched DO I = 1, 30
  A(I) = REAL(I)
End Selfsched DO
Presched DO I = 1, 30
  A(I) = A(I) * 2.0
End Presched DO
Presched DO I = 1, 30
  B(I) = A(I) + 1.0
End Presched DO
GSUM T = 1
Barrier
Print S, T, NINT(A(30)), NINT(B(1))
End Barrier
Join
`)
	type observed struct {
		out   string
		logs  []string
		stats [6]int64
	}
	observe := func(rec *trace.Recorder) observed {
		var o observed
		var sb strings.Builder
		var mu sync.Mutex
		var force *core.Force
		cfg := Config{NP: 4, Stdout: &sb, Trace: rec, OnForce: func(f *core.Force) { force = f }}
		cfg.FuseLog = func(msg string) {
			mu.Lock()
			o.logs = append(o.logs, msg)
			mu.Unlock()
		}
		if err := Run(prog, cfg); err != nil {
			t.Fatal(err)
		}
		st := force.Stats()
		o.stats = [6]int64{st.Barriers.Load(), st.Loops.Load(), st.Criticals.Load(),
			st.PcaseBlocks.Load(), st.AskforTasks.Load(), st.Reductions.Load()}
		o.out = strings.TrimSpace(sb.String())
		return o
	}
	rec := trace.New(0)
	plain, traced := observe(nil), observe(rec)
	if traced.out != "465 4 60 3" {
		t.Errorf("out = %q", traced.out)
	}
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("attaching a Recorder changed the run:\nwithout: %+v\nwith:    %+v", plain, traced)
	}
	if !logsContain(traced.logs, "fused 2 DOALL(s)") || !logsContain(traced.logs, "partition=block") ||
		!logsContain(traced.logs, "not chunk-compiled") {
		t.Errorf("program does not cover a planned, an unplanned and a fused DOALL: %q", traced.logs)
	}
	if err := trace.CheckBarrierEpisodes(rec.Events(), 4); err != nil {
		t.Error(err)
	}
	if err := trace.CheckCriticalExclusion(rec.Events(), "L"); err != nil {
		t.Error(err)
	}
	// Every loop instance — the unplanned, the planned and both fused
	// members — covers 1..30 exactly once.  A process's spans lie between
	// its LoopStart and LoopEnd, whose Arg names the instance.
	var want []int64
	for i := 1; i <= 30; i++ {
		want = append(want, int64(i))
	}
	loops := map[int64][]trace.Event{}
	open := map[int]int64{}
	for _, e := range rec.Events() {
		switch e.Kind {
		case trace.LoopStart:
			open[e.PID] = e.Arg
		case trace.LoopSpan:
			loops[open[e.PID]] = append(loops[open[e.PID]], e)
		}
	}
	if len(loops) != 4 {
		t.Errorf("%d loop instances traced, want 4", len(loops))
	}
	for seq, events := range loops {
		if err := trace.CheckLoopCoverage(events, want); err != nil {
			t.Errorf("loop instance %d: %v", seq, err)
		}
	}
}

// TestAsyncArrayWavefront is the HEP dataflow idiom in the dialect: each
// process consumes its predecessor cell and produces its own, so values
// propagate through the async array regardless of arrival order.
func TestAsyncArrayWavefront(t *testing.T) {
	out := run(t, `Force WAVE of NP ident ME
Async Integer CELLS(8)
Private Integer X
End Declarations
IF (ME .EQ. 0) THEN
  Produce CELLS(1) = 100
End IF
IF (ME .GT. 0) THEN
  Consume CELLS(ME) into X
  Produce CELLS(ME) = X
  Produce CELLS(ME + 1) = X + 1
End IF
Barrier
End Barrier
IF (ME .EQ. 0) THEN
  Consume CELLS(NP) into X
  Print 'end of wave:', X
End IF
Join
`, Config{NP: 6})
	if got := strings.TrimSpace(out); got != "end of wave: 105" {
		t.Errorf("out = %q", got)
	}
}

// TestAsyncArrayBounds: out-of-range async subscripts are runtime errors.
func TestAsyncArrayBounds(t *testing.T) {
	prog := forcelang.MustParse(`Force AB of NP ident ME
Async Integer C(3)
End Declarations
Produce C(4) = 1
Join
`)
	err := Run(prog, Config{NP: 1})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("err = %v", err)
	}
}
