// Package corpus holds the cross-tier acceptance programs shared by the
// interpreter engines and the AOT (generated-Go) tier.  The interpreter
// equivalence tests (internal/interp), the aot parity integration tests
// (repo root), and CI's tier sweeps all iterate these same slices, so a
// new execution backend is held to exactly the same bar as the existing
// ones: byte-identical output (modulo print interleaving) and
// byte-identical runtime-error messages.
//
// Three families:
//
//   - Equiv: the PR-3 15-program equivalence corpus — one deterministic
//     program per language construct family (coercions, shared traffic,
//     2-D arrays, call chains, recursion, Pcase, Askfor, reductions,
//     asyncvars, DO WHILE, negative strides);
//   - RuntimeErrors / NonUniform: the PR-4 fault corpora — uniform error
//     sites (every process errs) and non-uniform ones (one process errs
//     while peers block in a collective), each with a pinned
//     "force runtime: line N: ..." message;
//   - Chunk: the PR-6 chunk matrix — programs chosen to hit the chunk
//     tier's edges (strides, empty ranges, two-index DOALLs,
//     disjointness proofs and their failures, accumulator folding (sums
//     and extrema), final loop-variable values, and bodies that make the
//     iteration-to-process map observable, which must keep the cyclic
//     deal), the grant of a selfscheduled loop, and the span check
//     (affine subscripts tested at a span's two ends: guarded
//     out-of-range references, every affine form, wrapping products) and
//     block evaluation (span lengths around the block width, steps and
//     subscript forms, folds in index order, statement order, every
//     reason a body is declined);
//   - Fusion / FusionFaults: the PR-10 fusion matrix — programs shaped
//     for the chunk tier's fusion pass (adjacent independent DOALLs,
//     overlapping must-NOT-fuse pairs, foldable reduction tails, a
//     reduction feeding a later DOALL, and a fault striking inside a
//     fused region or a span-checked body).  Every tier, with fusion on
//     and off, must print
//     the same lines and report the same errors: fusion is a barrier
//     count optimization, never a semantics change;
//   - Reductions: the PR-22 matrix of reduction statements on their own —
//     all six operators into each class of target, ridden by Barrier
//     sections that read and overwrite the target, directly behind a
//     fused region's join, with operands coerced to the target's type.
//     Every result is exact, so besides every tier and np both reduction
//     strategies must print the same lines.
package corpus

// Program is one acceptance program.  NP is the force size the program
// was written for (0 means the test picks its own matrix).
type Program struct {
	Name string
	NP   int
	Src  string
}

// Equiv is the deterministic equivalence corpus: every execution tier
// must produce the same sorted output lines at the given NP.
var Equiv = []Program{
	{"hello", 4, `Force HELLO of NP ident ME
End Declarations
Print 'hello from', ME, 'of', NP
Join
`},
	{"coercions", 2, `Force CO of NP ident ME
Private Real X
Private Integer K
Private Logical B
End Declarations
IF (ME .EQ. 0) THEN
  X = 7
  K = 3.9
  B = 1 .LT. 2 .AND. .NOT. (2.0 .GE. 3.0)
  Print X, K, B
  Print INT(2.9), NINT(2.9), INT(7), MOD(9, 4), MOD(9.5, 4.0)
  Print MIN(3, 1, 2), MAX(1.5, 2), ABS(-3), ABS(-2.5), SQRT(16.0)
  Print -X, -K, 5 / 2, 5.0 / 2.0, 1 / 2
End IF
Join
`},
	{"shared-scalar-traffic", 4, `Force SST of NP ident ME
Shared Integer TOTAL
Shared Real ACC
Shared Logical FLAG
Private Integer I
End Declarations
Barrier
  TOTAL = 0
  ACC = 0.0
  FLAG = .FALSE.
End Barrier
Presched DO I = 1, 200
  Critical L
    TOTAL = TOTAL + I
    ACC = ACC + REAL(I) / 2.0
  End Critical
End Presched DO
Barrier
  FLAG = TOTAL .EQ. 20100
  Print TOTAL, ACC, FLAG
End Barrier
Join
`},
	{"arrays-2d", 3, `Force A2 of NP ident ME
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
`},
	{"call-chain-param-forwarding", 4, `Force CHAIN of NP ident ME
Shared Real A(6)
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 6
  A(I) = REAL(I)
End Presched DO
Barrier
End Barrier
Call OUTER(A, S)
Barrier
  Print 'sum', NINT(S)
End Barrier
IF (ME .EQ. 0) THEN
  Call BUMP(A(2))
  Print 'bumped', A(2)
End IF
Join
Forcesub OUTER(X, T)
Shared Real X(6)
Shared Real T
End Declarations
Call INNER(X, T)
Endsub
Forcesub INNER(Y, U)
Shared Real Y(6)
Shared Real U
Private Integer K
End Declarations
Barrier
  U = 0.0
End Barrier
Presched DO K = 1, 6
  Critical LC
    U = U + Y(K)
  End Critical
End Presched DO
Barrier
End Barrier
IF (U .GT. 100.0) THEN
  Call BUMP(Y(1))
End IF
Endsub
Forcesub BUMP(Z)
Shared Real Z
End Declarations
Z = Z + 10.0
Endsub
`},
	{"recursive-sub", 2, `Force REC of NP ident ME
Private Integer N, R
End Declarations
IF (ME .EQ. 0) THEN
  N = 5
  R = 1
  Call FACT(N, R)
  Print 'fact', R
End IF
Join
Forcesub FACT(N, R)
Private Integer N, R
Private Integer M
End Declarations
IF (N .GT. 1) THEN
  R = R * N
  M = N - 1
  Call FACT(M, R)
End IF
Endsub
`},
	{"private-arrays-fresh-per-call", 2, `Force PA of NP ident ME
End Declarations
IF (ME .EQ. 0) THEN
  Call WORK
  Call WORK
End IF
Join
Forcesub WORK()
Private Real B(4)
Private Integer K, Z
End Declarations
Z = 0
DO K = 1, 4
  IF (B(K) .EQ. 0.0) THEN
    Z = Z + 1
  End IF
  B(K) = REAL(K)
End DO
Print 'zeros', Z
Endsub
`},
	{"unit-local-shared", 3, `Force PERSIST of NP ident ME
End Declarations
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
`},
	{"pcase", 2, `Force PC of NP ident ME
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
`},
	{"askfor-put", 4, `Force AF of NP ident ME
Shared Integer SEEN
Private Integer T
End Declarations
Barrier
  SEEN = 0
End Barrier
Askfor T = 4
  Critical CL
    SEEN = SEEN + 1
  End Critical
  IF (T .GT. 1) THEN
    Put T - 1
    Put T - 1
  End IF
End Askfor
Barrier
  Print 'tasks', SEEN
End Barrier
Join
`},
	{"reductions", 4, `Force RD of NP ident ME
Shared Integer TOTAL
Shared Real BIG
Shared Logical ALLIN, ANYODD
Private Integer I, MINE
End Declarations
MINE = 0
Presched DO I = 1, 40
  MINE = MINE + I
End Presched DO
GSUM TOTAL = MINE
GMAX BIG = REAL(ME) + 0.5
GAND ALLIN = TOTAL .EQ. 820
GOR ANYODD = MOD(ME, 2) .EQ. 1
Barrier
  Print TOTAL, BIG, ALLIN, ANYODD
End Barrier
Join
`},
	{"async-wave", 5, `Force WAVE of NP ident ME
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
`},
	{"async-copy-void", 1, `Force CV of NP ident ME
Async Real V
Private Real A
Private Integer K
End Declarations
Produce V = 4.5
Copy V into A
Print A
Consume V into K
Print K
Produce V = 1.0
Void V
Produce V = 2.25
Consume V into A
Print A
Join
`},
	{"while-convergence", 5, `Force WH of NP ident ME
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
`},
	{"negative-step", 2, `Force NEG of NP ident ME
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
`},
	// INT of an INTEGER is the identity: 2^53 + 1 does not survive a trip
	// through REAL, in a DOALL body (the block form, with an argument
	// that varies with the index) or out of one.
	{"int-of-integer", 2, `Force INTI of NP ident ME
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
  Print INT(K), A(1), A(4), INT(-7), INT(2.9), INT(-2.9)
End Barrier
Join
`},
	// A subroutine may redeclare an inherited shared name: inside S, N is
	// the private REAL, and the main program's shared N is untouched.
	{"sub-local-shadows-shared", 2, `Force SHD of NP ident ME
Shared Integer N
End Declarations
Barrier
N = 5
End Barrier
Call S()
Barrier
Print N
End Barrier
Join
Forcesub S()
Private Real N
End Declarations
N = 1.5
IF (ME .EQ. 0) THEN
  Print N
End IF
Endsub
`},
	// A DOALL whose range spans more than 2^63 runs its trips, as the
	// sequential DO with the same header does: 19, counted from the
	// unsigned span, not from a wrapped difference.  A count of 0 divides
	// by zero in the last Print, so every tier fails rather than agreeing.
	{"wide-range-doall", 2, `Force WIDE of NP ident ME
Shared Integer TRIPS, FOLD, SEQ
Private Integer I
End Declarations
Barrier
  TRIPS = 0
  FOLD = 0
  SEQ = 0
  DO I = -9000000000000000000, 9000000000000000000, 1000000000000000000
    SEQ = SEQ + 1
  End DO
End Barrier
Presched DO I = -9000000000000000000, 9000000000000000000, 1000000000000000000
  Critical C
    TRIPS = TRIPS + 1
  End Critical
End Presched DO
Selfsched DO I = 9000000000000000000, -9000000000000000000, -1000000000000000000
  FOLD = FOLD + 1
End Selfsched DO
Barrier
  Print 'trips', TRIPS, FOLD, 'of', SEQ, SEQ * SEQ / (TRIPS * FOLD)
End Barrier
Join
`},
	// The six relations over a NaN, which orders with nothing: as in IEEE
	// and Fortran every REAL relation but .NE. is false on it, so X .NE. X
	// holds for a NaN X; and over signed zeros.
	{"nan-compares", 1, `Force NANC of NP ident ME
Private Real X, Y, Z
End Declarations
X = 0.0 / 0.0
Y = 1.0
Z = -1.0 * 0.0
Print X .EQ. Y, X .NE. Y, X .LT. Y, X .LE. Y, X .GT. Y, X .GE. Y
Print Y .EQ. X, Y .NE. X, Y .LT. X, Y .LE. X, Y .GT. X, Y .GE. X
Print X .EQ. X, X .NE. X, Z .EQ. 0.0, Z .LT. 0.0, Z .GE. 0, X .LE. 1
Join
`},
}

// RuntimeErrors is the uniform runtime-error corpus: every process hits
// the error, at any NP, and every tier must report the identical
// "force runtime: line N: ..." message.
var RuntimeErrors = []Program{
	{"subscript", 1, `Force E of NP ident ME
Shared Real A(3)
End Declarations
A(4) = 1.0
Join
`},
	{"subscript-2d", 1, `Force E of NP ident ME
Private Real M(3, 3)
Private Integer I
End Declarations
I = 0
M(2, I) = 1.0
Join
`},
	{"div-zero", 1, `Force E of NP ident ME
Private Integer I
End Declarations
I = 1 / 0
Join
`},
	{"sqrt-negative", 1, `Force E of NP ident ME
Private Real X
End Declarations
X = SQRT(-1.0)
Join
`},
	{"mod-zero", 1, `Force E of NP ident ME
Private Integer I
End Declarations
I = MOD(5, 0)
Join
`},
	{"zero-step", 1, `Force E of NP ident ME
Private Integer I
End Declarations
DO I = 1, 3, 0
End DO
Join
`},
	{"async-bounds", 1, `Force E of NP ident ME
Async Integer C(3)
End Declarations
Produce C(4) = 1
Join
`},
	// A MOD by the literal 0 can raise, so its DOALL stays per iteration
	// and reports the fault at its own line.
	{"mod-zero-doall", 1, `Force E of NP ident ME
Shared Integer A(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
  A(I) = MOD(I, 0) + 1
End Presched DO
Join
`},
	// A span that fails its end-point test runs the iterations before the
	// offending one first, as the per-iteration check always did: at np = 1
	// iteration 8 finds A(1) and A(7) stored and errs at line 8 (subscript
	// 9); had 1..7 been skipped it would pass line 8 and err at line 10.
	{"span-earlier-stores", 1, `Force E of NP ident ME
Shared Integer A(8), B(8), C(8), D(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
  A(I) = I
  IF (I .EQ. 8) THEN
    C(A(1) + A(7) + 1) = 1
  End IF
  B(I) = D(I + 1)
End Presched DO
Join
`},
}

// NonUniform is the fault-containment corpus: the error strikes only
// some processes while their peers block in (or head toward) a
// collective construct.  Each program must return the force runtime
// error — not hang — at NP in {2, 8} under every tier.
var NonUniform = []Program{
	{"before-a-barrier", 2, `Force E of NP ident ME
Private Integer I
End Declarations
IF (ME .EQ. 1) THEN
I = 1 / 0
END IF
Barrier
End Barrier
Join
`},
	{"inside-critical", 2, `Force E of NP ident ME
Shared Integer S
Private Integer I
End Declarations
Critical C
IF (ME .EQ. 1) THEN
I = 1 / 0
END IF
S = S + 1
End Critical
Barrier
End Barrier
Join
`},
	{"inside-doall-body", 2, `Force E of NP ident ME
Shared Real A(100)
Private Integer I
End Declarations
Selfsched DO I = 1, 100
A(I) = 1.0 / (I - 7)
A(I) = A(I) * REAL(I / (I - 7))
End Selfsched DO
Join
`},
	{"peer-waits-in-askfor", 2, `Force E of NP ident ME
Private Integer W, I
End Declarations
Askfor W = 1
I = 1 / 0
End Askfor
Join
`},
	{"consume-never-produced", 2, `Force E of NP ident ME
Async Integer V
Private Integer I
End Declarations
IF (ME .EQ. 0) THEN
Consume V into I
END IF
IF (ME .EQ. 1) THEN
I = 1 / 0
END IF
Join
`},
	{"reduction-missing-contributor", 2, `Force E of NP ident ME
Shared Integer T
Private Integer I
End Declarations
IF (ME .EQ. 1) THEN
I = 1 / 0
END IF
GSUM T = ME
Join
`},
}

// Chunk is the chunk-tier edge matrix; tests pick their own NP sweep
// (typically {1, 2, 8}).
var Chunk = []Program{
	{"step-gt-1", 0, `Force S3 of NP ident ME
Shared Real A(100)
Private Integer I
Private Real T
End Declarations
Presched DO I = 1, 100
  A(I) = 0.0
End Presched DO
Barrier
End Barrier
Presched DO I = 1, 97, 3
  A(I) = REAL(I) * 2.0
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 100
    T = T + A(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	{"negative-step-accum", 0, `Force NEGC of NP ident ME
Shared Real A(64)
Shared Integer S
Private Integer I
Private Real T
End Declarations
Barrier
  S = 0
End Barrier
Presched DO I = 1, 64
  A(I) = 1.0
End Presched DO
Barrier
End Barrier
Presched DO I = 60, 4, -4
  A(I) = REAL(I) + 0.5
  S = S + I
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 64
    T = T + A(I)
  End DO
  Print S, NINT(T * 2.0)
End Barrier
Join
`},
	{"empty-range", 0, `Force EMPTY of NP ident ME
Shared Real A(10)
Shared Integer S
Private Integer I
Private Real T
End Declarations
Barrier
  S = 0
End Barrier
Presched DO I = 1, 10
  A(I) = 1.0
End Presched DO
Barrier
End Barrier
Presched DO I = 5, 1
  A(I) = REAL(I) * 100.0
  S = S + 1
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 10
    T = T + A(I)
  End DO
  Print S, NINT(T)
End Barrier
Join
`},
	{"doall2-nested", 0, `Force D2 of NP ident ME
Shared Real M(8, 12)
Private Integer I, J
Private Real T
End Declarations
Presched DO I = 1, 8 also J = 1, 12
  M(I, J) = REAL(I * 100 + J)
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 8
    DO J = 1, 12
      T = T + M(I, J)
    End DO
  End DO
  Print NINT(T)
End Barrier
Join
`},
	{"same-element-fallback", 0, `Force SAMEF of NP ident ME
Shared Real A(4)
Shared Real B(40)
Private Integer I
Private Real T
End Declarations
Presched DO I = 1, 40
  A(MOD(I, 4) + 1) = 7.0
  B(I) = REAL(I)
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 4
    T = T + A(I)
  End DO
  DO I = 1, 40
    T = T + B(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	{"uniform-hoist", 0, `Force UHOIST of NP ident ME
Shared Real A(50)
Shared Real C1, C2
Private Integer I
Private Real X, T
End Declarations
Barrier
  C1 = 1.5
  C2 = 0.25
End Barrier
Presched DO I = 1, 50
  X = (C1 * 2.0 + C2) * REAL(I)
  A(I) = X + C1
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 50
    T = T + A(I)
  End DO
  Print NINT(T * 4.0)
End Barrier
Join
`},
	{"selfsched-accum", 0, `Force SSACC of NP ident ME
Shared Real A(300)
Shared Integer S
Private Integer I
Private Real T
End Declarations
Barrier
  S = 100
End Barrier
Selfsched DO I = 1, 300
  A(I) = REAL(I)
  S = S + I
  S = S - 1
End Selfsched DO
Barrier
  T = 0.0
  DO I = 1, 300
    T = T + A(I)
  End DO
  Print S, NINT(T)
End Barrier
Join
`},
	{"if-and-seqdo", 0, `Force IFSD of NP ident ME
Shared Real A(40)
Private Integer I, J
Private Real T
End Declarations
Presched DO I = 1, 40
  T = 0.0
  DO J = 1, 5
    T = T + REAL(I * J)
  End DO
  IF (MOD(I, 2) .EQ. 0) THEN
    A(I) = T
  ELSE
    A(I) = 0.0 - T
  End IF
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 40
    T = T + A(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	{"written-subscript-fallback", 0, `Force WSUB of NP ident ME
Shared Real A(30)
Private Integer I, K
Private Real T
End Declarations
Presched DO I = 1, 30
  K = I + 1
  A(K - 1) = REAL(I) * 3.0
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 30
    T = T + A(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	{"loop-var-final", 0, `Force LVF of NP ident ME
Private Integer I
End Declarations
I = 0 - 9
Presched DO I = 1, 37
End Presched DO
Print 'me', ME, I
Join
`},
	// The extrema accumulate, S = MAX(S, e) / S = MIN(S, e) over INTEGER
	// and REAL shared scalars: one atomic update per statement in every
	// tier, folded into span partials where the plan allows, and clean
	// for forcevet either way.
	{"minmax-accum-presched", 0, `Force MMP of NP ident ME
Shared Real A(64)
Shared Integer TOP, LOW
Shared Real BIG, SMALL
Private Integer I
End Declarations
Barrier
  TOP = 0 - 1000
  LOW = 1000
  BIG = 0.0 - 1000.0
  SMALL = 1000.0
End Barrier
Presched DO I = 1, 64
  A(I) = REAL(MOD(I * 37, 64)) * 0.25 - 3.0
End Presched DO
Barrier
End Barrier
Presched DO I = 1, 64
  TOP = MAX(TOP, MOD(I * 37, 64))
  LOW = MIN(LOW, MOD(I * 11, 64) - 7)
  BIG = MAX(BIG, A(I))
  SMALL = MIN(SMALL, A(I) * 0.5)
End Presched DO
Barrier
  Print TOP, LOW, BIG, SMALL
End Barrier
Join
`},
	{"minmax-accum-selfsched", 0, `Force MMS of NP ident ME
Shared Real A(300)
Shared Integer TOP, LOW
Shared Real BIG, SMALL
Private Integer I
End Declarations
Barrier
  TOP = 0
  LOW = 0
  BIG = 0.0
  SMALL = 0.0
End Barrier
Selfsched DO I = 1, 300
  A(I) = REAL(MOD(I * 7, 300)) / 8.0 - 10.0
End Selfsched DO
Barrier
End Barrier
Selfsched DO I = 300, 1, -1
  TOP = MAX(TOP, MOD(I * 7, 300) - 100)
  LOW = MIN(LOW, 50 - MOD(I * 13, 300))
  BIG = MAX(BIG, A(I))
  SMALL = MIN(SMALL, A(I))
End Selfsched DO
Barrier
  Print TOP, LOW, BIG, SMALL
End Barrier
Join
`},
	// A Print keeps the body on the per-iteration path: nothing folds,
	// every accumulate is an atomic update of the cell.
	{"minmax-accum-print", 0, `Force MMPR of NP ident ME
Shared Integer TOP
Shared Real SMALL
Private Integer I
End Declarations
Barrier
  TOP = 0
  SMALL = 100.0
End Barrier
Presched DO I = 1, 12
  TOP = MAX(TOP, MOD(I * 5, 12))
  SMALL = MIN(SMALL, REAL(I) * 0.5 + 2.0)
  Print 'it', I
End Presched DO
Barrier
  Print TOP, SMALL
End Barrier
Join
`},
	// Extrema beside an INTEGER sum: three partials of two kinds in one
	// span, folded in name order.
	{"minmax-beside-sum", 0, `Force MMSUM of NP ident ME
Shared Integer S, TOP
Shared Real BIG
Private Integer I
End Declarations
Barrier
  S = 5
  TOP = 0 - 1
  BIG = 0.0
End Barrier
Selfsched DO I = 1, 200
  S = S + I
  TOP = MAX(TOP, MOD(I * 7, 50))
  BIG = MAX(BIG, REAL(I) / 8.0)
  S = S - 2
End Selfsched DO
Barrier
  Print S, TOP, BIG
End Barrier
Join
`},
	// The next three make the iteration-to-process map OBSERVABLE, so
	// the chunk tier must keep the paper's cyclic deal for them (a
	// contiguous-block partition would print different lines).
	// A private scalar carried across a process's iterations and
	// printed per process.
	{"partition-private-carry", 0, `Force PCARRY of NP ident ME
Shared Real A(40)
Private Integer I, C
End Declarations
C = 0
Presched DO I = 1, 40
  C = C + I
  A(I) = REAL(I)
End Presched DO
Print 'me', ME, C
Join
`},
	// The executing process's id stored into a disjoint array.
	{"partition-me-into-array", 0, `Force PME of NP ident ME
Shared Integer OWNER(24)
Shared Integer T
Private Integer I
End Declarations
Presched DO I = 1, 24
  OWNER(I) = ME
End Presched DO
Barrier
  T = 0
  DO I = 1, 24
    T = T + OWNER(I) * I
  End DO
  Print T
End Barrier
Join
`},
	// A private temporary written in the body and printed after the
	// loop: each process shows its LAST iteration's value.
	{"partition-private-temp", 0, `Force PTEMP of NP ident ME
Shared Real A(30)
Private Integer I
Private Real T
End Declarations
T = 0.0
Presched DO I = 1, 30
  T = REAL(I) * 2.0
  A(I) = T + 1.0
End Presched DO
Print 'me', ME, NINT(T)
Join
`},
	// The control: nothing observes the map, so the loop is dealt in
	// blocks — and the loop variable each process prints afterwards is
	// still the cyclic deal's (two-index form included).
	{"partition-block-loop-vars", 0, `Force PBLK of NP ident ME
Shared Real A(37)
Shared Integer G(5, 7)
Private Integer I, J
End Declarations
I = 0 - 9
J = 0 - 9
Presched DO I = 37, 1, -1
  A(I) = REAL(I) * 0.5
End Presched DO
Print 'one', ME, I, NINT(A(37))
Presched DO I = 1, 5 also J = 1, 7
  G(I, J) = I * 10 + J
End Presched DO
Print 'two', ME, I, J, G(5, 7)
Join
`},
	// Bodies no plan covers (a Call in each), on the edges of the one
	// span lowering every tier gives them: a two-index loop whose inner
	// index runs backwards, the index pair handed to the callee by
	// reference and printed per process afterwards ...
	{"unplanned-doall2-negative-inner", 0, `Force UD2 of NP ident ME
Shared Integer G(4, 6)
Private Integer I, J
End Declarations
I = 0 - 9
J = 0 - 9
Presched DO I = 1, 4 also J = 6, 1, -1
  Call CELL(G(I, J), I, J)
End Presched DO
Print 'after', ME, I, J
Barrier
  DO I = 1, 4
    Print 'row', I, G(I, 1), G(I, 2), G(I, 3), G(I, 4), G(I, 5), G(I, 6)
  End DO
End Barrier
Join
Forcesub CELL(X, A, B)
Shared Integer X
Private Integer A, B
End Declarations
X = A * 10 + B
Endsub
`},
	// ... and zero-trip loops under both disciplines: no iteration, no
	// store to the index, and the exit synchronization still closes them.
	{"unplanned-zero-trip", 0, `Force UZT of NP ident ME
Shared Integer S
Private Integer I
End Declarations
I = 0 - 9
Barrier
  S = 0
End Barrier
Selfsched DO I = 5, 1
  Critical B
    Call BUMP(S)
  End Critical
End Selfsched DO
Presched DO I = 1, 0
  Critical B
    Call BUMP(S)
  End Critical
End Presched DO
Print 'zero', ME, I, S
Join
Forcesub BUMP(Z)
Shared Integer Z
End Declarations
Z = Z + 1
Endsub
`},
	// The next three are about the GRANT — how many ordinals one claim of a
	// planned selfscheduled loop takes (internal/plan, cost.go).  A grant is
	// unobservable in a race-free program, so every tier must still agree.
	// Loops shorter than one grant (the first arriver takes all of it),
	// empty, not a multiple of the grant, and with a negative step.
	{"grant-short-and-ragged", 0, `Force GSHORT of NP ident ME
Shared Integer A(1000), B(1000)
Shared Integer T, U
Private Integer I
End Declarations
Presched DO I = 1, 1000
  A(I) = 0
  B(I) = 0
End Presched DO
Selfsched DO I = 1, 3
  A(I) = A(I) + I
End Selfsched DO
Selfsched DO I = 4, 3
  A(I) = A(I) + 1000
End Selfsched DO
Selfsched DO I = 4, 1000
  A(I) = A(I) + I
End Selfsched DO
Selfsched DO I = 999, 2, -7
  B(I) = B(I) + I
End Selfsched DO
Barrier
  T = 0
  U = 0
  DO I = 1, 1000
    T = T + A(I)
    U = U + B(I) * MOD(I, 3)
  End DO
  Print 'ragged', T, U
End Barrier
Join
`},
	// heat-sweeps' shape: a private maximum and a private count carried
	// across whichever iterations a process claims, then reduced.
	{"grant-private-carry", 0, `Force GCARRY of NP ident ME
Shared Real T(402), TNEW(402)
Shared Real DIFF
Shared Integer COUNT
Private Integer I, MINE
Private Real D, DMINE
End Declarations
Presched DO I = 1, 402
  T(I) = REAL(MOD(I * 37, 101))
  TNEW(I) = 0.0
End Presched DO
Selfsched DO I = 2, 401
  TNEW(I) = (T(I - 1) + T(I + 1)) / 2.0
End Selfsched DO
DMINE = 0.0
MINE = 0
Selfsched DO I = 2, 401
  D = ABS(TNEW(I) - T(I))
  IF (D .GT. DMINE) THEN
    DMINE = D
  End IF
  MINE = MINE + 1
  T(I) = TNEW(I)
End Selfsched DO
GMAX DIFF = DMINE
GSUM COUNT = MINE
Barrier
  Print 'residual', NINT(DIFF * 10.0), 'iterations', COUNT
End Barrier
Join
`},
	// A fused region of selfscheduled members with different grants — the
	// middle one's inner DO has no literal trip count, so it keeps one
	// iteration per claim — closed by a GSUM join a Barrier rides.
	{"grant-fused-selfsched", 0, `Force GFUSE of NP ident ME
Shared Integer A(500), B(500), E(500)
Shared Integer TOTAL, CHECK
Private Integer I, J, MINE
End Declarations
MINE = 0
Selfsched DO I = 1, 500
  A(I) = I
End Selfsched DO
Selfsched DO I = 1, 500
  B(I) = 0
  DO J = 1, MOD(I, 3)
    B(I) = B(I) + I
  End DO
End Selfsched DO
Selfsched DO I = 1, 500
  E(I) = 3 * I
  MINE = MINE + 1
End Selfsched DO
GSUM TOTAL = MINE
Barrier
  CHECK = 0
  DO I = 1, 500
    CHECK = CHECK + A(I) + B(I) + E(I)
  End DO
  Print 'fused selfsched', TOTAL, CHECK
End Barrier
Join
`},
	// The next six are about the SPAN CHECK — an element reference whose
	// subscripts are affine in the DOALL index is range-checked at the two
	// ends of each granted span and indexed unchecked between them; a span
	// that fails the test runs the checked plan-less body.  Which spans
	// fail depends on the deal, so every tier and every np must still
	// agree.  Out-of-range references guarded by an IF at the first and
	// the last index of the range, prescheduled and selfscheduled with a
	// negative step: checked body taken, no error.
	{"span-guarded-ends", 0, `Force SGUARD of NP ident ME
Shared Integer A(40), B(40)
Shared Integer N, T
Private Integer I
End Declarations
Barrier
  N = 40
End Barrier
Presched DO I = 1, N
  A(I) = I
  B(I) = 0
End Presched DO
Presched DO I = 1, N
  IF (I .GT. 1 .AND. I .LT. N) THEN
    B(I) = A(I - 1) + A(I + 1)
  ELSE
    B(I) = A(I)
  End IF
End Presched DO
Selfsched DO I = N, 1, -1
  IF (I .LT. N) THEN
    B(I) = B(I) + A(I + 1)
  End IF
End Selfsched DO
Barrier
  T = 0
  DO I = 1, N
    T = T + B(I) * I
  End DO
  Print 'guarded', T
End Barrier
Join
`},
	// The affine forms: A(N + 1 - I), A(2*I - 1), a rest read from a
	// shared (K) and from a private (P — so the deal stays cyclic) INTEGER
	// scalar, a negative step, a non-unit step, and a subscript that does
	// not move with the index at all (C(K), coefficient 0).
	{"span-affine-forms", 0, `Force SAFF of NP ident ME
Shared Integer A(64), B(64), C(130)
Shared Integer N, K, T
Private Integer I, P
End Declarations
P = 3
Barrier
  N = 64
  K = 2
End Barrier
Presched DO I = 1, N
  A(I) = I
  B(N + 1 - I) = 10 * I
End Presched DO
Presched DO I = 1, N
  C(2 * I - 1) = A(I)
End Presched DO
Presched DO I = 1, N
  C(2 * I) = B(I)
End Presched DO
Presched DO I = N - 2, 3, -1
  A(I) = A(I) + C(I + K) - C(I - K) + B(I + P - 1)
End Presched DO
Selfsched DO I = 1, N, 3
  B(I) = B(I) + C(K) + C(N + N - 2 * I + 1)
End Selfsched DO
Barrier
  T = 0
  DO I = 1, N
    T = T + A(I) * I - B(I)
  End DO
  Print 'forms', T, C(1), C(128), C(129)
End Barrier
Join
`},
	// A private copied from shared storage differs per process: each
	// process takes its own ticket from a shared counter inside a Critical.
	// The flow analysis reads the copy as Assumed — uniform to forcevet,
	// varying to the planner — so the loop storing it keeps the cyclic
	// deal and A(1), A(2) come from two processes at np >= 2.  A planner
	// that took the copy as uniform would deal blocks and print T at np 2
	// and 3 where the walker prints F.
	{"shared-read-private", 0, `Force SRP of NP ident ME
Shared Integer A(8), CNT
Private Integer I, MINE
End Declarations
Barrier
  CNT = 0
End Barrier
Critical L
  CNT = CNT + 1
  MINE = CNT
End Critical
Presched DO I = 1, 8
  A(I) = MINE
End Presched DO
Barrier
  Print 'A(1) = A(2):', A(1) .EQ. A(2)
End Barrier
Join
`},
	// A callee writes the caller's privates through its parameters: an
	// element argument, bound as an alias of that one element, and a
	// parameter the callee declares Shared, bound to a private.  Each is
	// set to ME, so the loops reading them keep the cyclic deal, and A(2) -
	// A(1) is 2 at np >= 2 (1 at np 1); a flow analysis that lost either
	// write would deal blocks and print 1.
	{"element-argument-private", 0, `Force EAP of NP ident ME
Shared Integer A(8)
Private Integer I, ARR(2)
End Declarations
ARR(1) = 0
Call SETME(ARR(1))
Presched DO I = 1, 8
  A(I) = ARR(1) + I
End Presched DO
Barrier
  Print 'A(2) - A(1) =', A(2) - A(1)
End Barrier
Join
Forcesub SETME(P)
Private Integer P
End Declarations
P = ME
Endsub
`},
	{"shared-parameter-private", 0, `Force SPP of NP ident ME
Shared Integer A(8)
Private Integer I, K
End Declarations
K = 0
Call SETME(K)
Presched DO I = 1, 8
  A(I) = K + I
End Presched DO
Barrier
  Print 'A(2) - A(1) =', A(2) - A(1)
End Barrier
Join
Forcesub SETME(P)
Shared Integer P
End Declarations
P = ME
Endsub
`},
	// A 2-D array with one subscript uniform — a shared scalar, a literal,
	// an expression — and the other affine, rising and falling; the
	// two-index loop is not span-checked.
	{"span-2d-uniform-subscript", 0, `Force S2D of NP ident ME
Shared Integer M(6, 50), V(50)
Shared Integer R, T
Private Integer I, J
End Declarations
Barrier
  R = 4
End Barrier
Presched DO I = 1, 6 also J = 1, 50
  M(I, J) = 0
End Presched DO
Presched DO I = 1, 50
  M(R, I) = I
End Presched DO
Presched DO I = 1, 50
  M(2, 51 - I) = 2 * I
End Presched DO
Presched DO I = 1, 6
  M(I, 7) = M(I, 7) + 100 * I
End Presched DO
Selfsched DO I = 1, 50
  V(I) = M(R, I) - M(2, I) + M(R - 3, 7)
End Selfsched DO
Barrier
  T = 0
  DO I = 1, 50
    T = T + V(I) * I
  End DO
  Print 'two-d', T, M(6, 7), M(4, 50)
End Barrier
Join
`},
	// Selfscheduled loops shorter than, equal to and not a multiple of
	// their grant (59, 72 and 59 on the closure tier), the last iteration
	// of the first and third guarding an out-of-range reference: one
	// construct execution mixes passing and failing spans, and its
	// accumulator folds in the one kind and is applied atomically in the
	// other.
	{"span-grant-edges", 0, `Force SGRANT of NP ident ME
Shared Integer A(400), B(400)
Shared Integer S, T
Private Integer I
End Declarations
Barrier
  S = 0
End Barrier
Presched DO I = 1, 400
  A(I) = I
  B(I) = MOD(I, 7)
End Presched DO
Selfsched DO I = 396, 400
  IF (I .LT. 400) THEN
    A(I) = A(I) + B(I + 1)
  End IF
  S = S + B(I)
End Selfsched DO
Selfsched DO I = 1, 72
  A(I) = A(I) + B(I + 328)
  S = S + B(I)
End Selfsched DO
Selfsched DO I = 73, 400
  IF (I .LT. 400) THEN
    A(I) = A(I) + B(I + 1)
  End IF
  S = S + B(I)
End Selfsched DO
Barrier
  T = 0
  DO I = 1, 400
    T = T + A(I) * MOD(I, 5)
  End DO
  Print 'grants', S, T
End Barrier
Join
`},
	// Both members of a fused region closed by a GSUM join a Barrier
	// rides; the second member's last index takes the checked body.
	{"span-fused-members", 0, `Force SFUSE of NP ident ME
Shared Integer A(90), B(90), C(90)
Shared Integer N, TOTAL
Private Integer I, MINE
End Declarations
Barrier
  N = 90
End Barrier
Presched DO I = 1, N
  C(I) = MOD(I * 5, 11)
End Presched DO
MINE = 0
Presched DO I = 1, N
  A(N + 1 - I) = 2 * I
End Presched DO
Presched DO I = 1, N
  IF (I .LT. N) THEN
    B(I) = C(I) + C(I + 1)
  ELSE
    B(I) = C(I)
  End IF
  MINE = MINE + B(I) * I
End Presched DO
GSUM TOTAL = MINE
Barrier
  Print 'fused', TOTAL, A(1), A(90), B(90)
End Barrier
Join
`},
	// What is NOT span-checked and what must not be trusted: a subscript
	// through a written private temporary, a two-index loop, a body with a
	// parameter reference (the subroutine's), and a coefficient whose
	// product wraps — 4611686018427387904*I + 1 is 1 at I = 0 and, wrapped,
	// at I = 4: both ends in range, yet not monotone between them, so the
	// span is decided by the checked body.
	{"span-unproven-and-wrapping", 0, `Force SUNPR of NP ident ME
Shared Integer A(32), B(32), D(4, 4)
Shared Integer W, T
Private Integer I, J, K
End Declarations
Barrier
  W = 5
End Barrier
Presched DO I = 1, 32
  K = 33 - I
  A(K) = I
  B(I) = 0
End Presched DO
Presched DO I = 1, 4 also J = 1, 4
  D(I, J) = 10 * I + J
End Presched DO
Call ADDW(B, W)
Presched DO I = 0, 4, 4
  B(4611686018427387904 * I + 1) = A(2) + 1000
End Presched DO
Barrier
  T = 0
  DO I = 1, 32
    T = T + A(I) * B(I)
  End DO
  Print 'unproven', T, B(1), D(4, 3)
End Barrier
Join
Forcesub ADDW(X, V)
Shared Integer X(32)
Shared Integer V
Shared Integer G(32)
Private Integer K
End Declarations
Presched DO K = 1, 32
  G(K) = K + V
End Presched DO
Presched DO K = 1, 32
  G(K) = G(K) + X(33 - K)
End Presched DO
Barrier
End Barrier
IF (ME .EQ. 0) THEN
  DO K = 1, 32
    X(K) = G(K)
  End DO
End IF
Barrier
End Barrier
Endsub
`},
	// A literal coefficient that wraps in int64: 2^62 * 4 is 0, so both
	// iterations of each loop meet on A(1).  The form is not injective
	// (plan.Space.Coef answers only within ±2^31): the first loop keeps
	// the cyclic deal, and the pair does not fuse on the strength of a
	// same-pid argument over "disjoint" elements of A.  Both iterations
	// store one value, so the output is exact however they are dealt.
	{"wrapping-coefficient-not-disjoint", 0, `Force WRAPC of NP ident ME
Shared Integer A(8), B(8)
Private Integer I
End Declarations
Presched DO I = 0, 4, 4
  A(4611686018427387904 * I + 1) = 7
End Presched DO
Presched DO I = 0, 4, 4
  B(I + 1) = A(4611686018427387904 * I + 1) + I
End Presched DO
Barrier
  Print 'wrap', A(1), B(1), B(5)
End Barrier
Join
`},
	// The next four are the block-evaluated bodies (element-wise: straight
	// assignments over expressions that cannot raise).  Spans of 0, 1, 255,
	// 256 and 257 indices and of several blocks plus a remainder at np = 1
	// (other lengths at other np), and a selfscheduled loop whose grant, 134
	// on the closure tier, is shorter than a block.
	{"block-span-lengths", 0, `Force BLEN of NP ident ME
Shared Real A(700), B(700)
Shared Integer V(1200), W(1200)
Shared Real CHK
Shared Integer T
Private Integer I
End Declarations
Presched DO I = 1, 700
  A(I) = 1.0
  B(I) = REAL(I) * 0.125
End Presched DO
Presched DO I = 1, 1200
  V(I) = I * 37 - 20000
End Presched DO
Presched DO I = 1, 0
  A(I) = A(I) * 0.5 + B(I)
End Presched DO
Presched DO I = 1, 1
  A(I) = A(I) * 0.5 + B(I)
End Presched DO
Presched DO I = 1, 255
  A(I) = A(I) * 0.5 + B(I)
End Presched DO
Presched DO I = 1, 256
  A(I) = A(I) * 0.5 + B(I)
End Presched DO
Presched DO I = 1, 257
  A(I) = A(I) * 0.5 + B(I)
End Presched DO
Presched DO I = 1, 700
  A(I) = A(I) * 0.5 + B(I)
End Presched DO
Selfsched DO I = 1, 1200
  W(I) = V(I) * 3 + V(I) * V(I) - ABS(V(I) - 7) + MAX(V(I), 5, -I) + MIN(I, V(I)) - I
End Selfsched DO
Barrier
  CHK = 0.0
  DO I = 1, 700
    CHK = CHK + A(I) * REAL(MOD(I, 9))
  End DO
  T = 0
  DO I = 1, 1200
    T = T + W(I) * MOD(I, 13)
  End DO
  Print 'lens', CHK, A(1), A(255), A(256), A(257), A(258), T
End Barrier
Join
`},
	// Negative and non-unit steps, dealt in blocks and selfscheduled; the
	// coefficients -1 and -2; a 2-D array affine in both subscripts, along
	// its two diagonals.
	{"block-steps-and-forms", 0, `Force BFORM of NP ident ME
Shared Integer A(300), B(300), C(600), M(40, 40)
Shared Integer N, T
Private Integer I
End Declarations
Barrier
  N = 300
End Barrier
Presched DO I = 1, N
  A(I) = I
  B(N + 1 - I) = 3 * I
End Presched DO
Presched DO I = N, 1, -1
  A(I) = A(I) + B(I)
End Presched DO
Presched DO I = 2, N, 7
  A(I) = A(I) * 2 - B(N + 1 - I)
End Presched DO
Selfsched DO I = N - 1, 1, -3
  B(I) = B(I) + A(I + 1)
End Selfsched DO
Presched DO I = 1, N
  C(2 * N + 1 - 2 * I) = A(I) - I
End Presched DO
Presched DO I = 1, N
  C(2 * N + 2 - 2 * I) = B(I) - C(2 * N + 2 - 2 * I)
End Presched DO
Presched DO I = 1, 40
  M(I, 41 - I) = I * I
End Presched DO
Presched DO I = 1, 40
  M(I, I) = M(I, I) - I
End Presched DO
Presched DO I = 2, 39
  A(I) = M(I, 41 - I) - M(I, I) + M(41 - I, I) * M(I - 1, I + 1)
End Presched DO
Barrier
  T = 0
  DO I = 1, N
    T = T + A(I) * MOD(I, 7) + B(I) - C(I) + C(N + I) * 2
  End DO
  Print 'forms', T, A(2), A(39), B(299), C(1), C(600), M(40, 1), M(7, 7)
End Barrier
Join
`},
	// Folds: REAL private recurrences printed to full precision (a block
	// folds in index order, so each process's sum rounds as its iterations
	// do), INTEGER sums that wrap, a left-leaning chain, MAX / MIN over NaN
	// and signed zeros from either seed, a REAL recurrence over the INTEGER
	// index, and shared accumulators folded beside them.  Writing a
	// private keeps the cyclic deal, so the blocks step by np.  The NaN, the
	// -0.0 and the 'lits' line are REAL arithmetic on literals, which every
	// tier computes in IEEE arithmetic at run time; the 'ilits' line is
	// INTEGER arithmetic on literals, which every tier wraps.
	{"block-recurrences", 0, `Force BREC of NP ident ME
Shared Real V(300), Z(12)
Shared Integer K(300)
Shared Real BIG, SMALL
Shared Integer TOT, IBIG
Private Real X, Y, P, Q
Private Integer I, S, W, HI, LO
End Declarations
Presched DO I = 1, 300
  V(I) = 1.0 / REAL(I) + 0.1
  K(I) = I * 3037000499
End Presched DO
Barrier
  Z(1) = 0.0
  Z(2) = -1.0 * 0.0
  Z(3) = 0.0 / 0.0
  Z(4) = 1.5
  Z(5) = Z(3)
  Z(6) = Z(2)
  Z(7) = 0.0
  Z(8) = -2.5
  Z(9) = 1.5
  Z(10) = Z(2)
  Z(11) = -2.5
  Z(12) = 0.0
  BIG = -1.0
  SMALL = 9.0
  TOT = 9223372036854775807
  IBIG = 0
End Barrier
X = 0.0
Y = 100.0
S = 0
W = 9223372036854775807
HI = -5
LO = 5
Presched DO I = 1, 300
  X = X + V(I)
  Y = Y - V(I) * 0.3
  S = S + K(I) * K(I) - I
  W = K(I) + W
  HI = MAX(HI, K(I) * 5)
  LO = MIN(LO, -I)
End Presched DO
Print 'rec', ME, X, Y, S, W, HI, LO
X = 0.5
Presched DO I = 300, 1, -1
  X = X + I
  BIG = MAX(BIG, V(I))
  SMALL = MIN(SMALL, V(I) * REAL(I))
  TOT = TOT + K(I)
End Presched DO
Print 'mixed', ME, X
P = Z(2)
Q = Z(1)
Presched DO I = 1, 12
  P = MAX(P, Z(I))
  Q = MIN(Q, Z(I))
End Presched DO
Print 'ext', ME, P, Q, 1.0 / P
P = Z(3)
Q = Z(6)
Presched DO I = 12, 1, -1
  P = MAX(P, Z(I))
  Q = MIN(Q, -Z(I))
End Presched DO
Print 'nan', ME, P, Q
Barrier
  Print 'shared', BIG, SMALL, TOT, IBIG
  Print 'lits', 0.1 + 0.2, -0.0, 1.0 / (-0.0), 2.0 * 3.0 - 0.5 / 4.0, -(1.0 - 1.0)
  Print 'ilits', 9223372036854775807 + 1, -(9223372036854775807 + 1), 3 * 4611686018427387904 - 1
End Barrier
Join
`},
	// Statement at a time: later statements read and re-store what earlier
	// ones stored at the same element, through an INTEGER / REAL round trip.
	// Then the bodies the planner declines, each for its own reason — IF,
	// integer MOD (and /) by a divisor that is not a nonzero literal (T is
	// 0 there), a private read outside its recurrence (a running
	// sum each process stores as it goes), SQRT — and between them a
	// private temporary, which is block-evaluated.
	{"block-statement-order-and-declined", 0, `Force BORD of NP ident ME
Shared Integer A(300), B(300), C(300)
Shared Real R(300)
Shared Integer T
Private Integer I, X
End Declarations
Presched DO I = 1, 300
  B(I) = 2 * I + 1
End Presched DO
Presched DO I = 1, 300
  A(I) = B(I) + 1
  C(I) = A(I) * 2 - B(I)
  A(I) = A(I) + C(I)
  R(I) = A(I) / 4.0
  B(I) = R(I) + 0.75
End Presched DO
Presched DO I = 1, 300
  IF (MOD(I, 3) .EQ. 0) THEN
    B(I) = B(I) + A(I)
  End IF
End Presched DO
Presched DO I = 1, 300
  C(I) = MOD(A(I), 7 + T) + B(I) / (2 + T)
End Presched DO
X = 0
Presched DO I = 1, 300
  X = X + C(I)
  A(I) = X
End Presched DO
Presched DO I = 1, 300
  X = A(I) - I
  B(I) = B(I) + X
End Presched DO
Presched DO I = 1, 300
  R(I) = SQRT(R(I)) + NINT(R(I)) - INT(R(I) * 0.5)
End Presched DO
Barrier
  T = 0
  DO I = 1, 300
    T = T + A(I) * MOD(I, 11) + B(I) - C(I) + NINT(R(I) * 8.0)
  End DO
  Print 'order', T, A(300), B(300), C(300), R(300)
End Barrier
Join
`},
	// Private temporaries: stored once per iteration, first thing, and read
	// after — twice in one expression, through unary minus, ABS, MOD, NINT
	// and REAL, by another temporary — from a buffer of their own; after
	// the loop each holds its process's last iteration's value.  Then one
	// read before its store, which stays per iteration; and a selfscheduled
	// residual, a temporary folded by IF (D .GT. R) THEN R = D.  600
	// iterations: a process's span runs as several blocks at every np.
	{"block-temporaries", 0, `Force BTMP of NP ident ME
Shared Real A(600), B(600), C(600)
Shared Integer L(600), M(600)
Shared Real W
Private Real D, E, R
Private Integer I, K
End Declarations
Presched DO I = 1, 600
  A(I) = REAL(MOD(I * 37, 101)) / 8.0 - 6.0
  B(I) = REAL(MOD(I * 53, 89)) / 4.0
  L(I) = MOD(I * 7, 13) - 6
End Presched DO
D = -1.0
K = -1
Presched DO I = 1, 600
  D = A(I) * B(I) - 1.5
  K = L(I) * 3 + I
  E = -D + REAL(K)
  C(I) = D * D + D / 2.0 - E
  M(I) = K - MOD(K, 5) + ABS(K) + NINT(D)
End Presched DO
Print 'last', ME, D, K, E
Presched DO I = 1, 600
  A(I) = A(I) + D
  D = B(I) + 1.0
End Presched DO
Print 'before', ME, D
R = 0.0
Selfsched DO I = 2, 599
  D = ABS(C(I + 1) - C(I - 1))
  IF (D .GT. R) THEN
    R = D
  End IF
End Selfsched DO
GMAX W = R
Barrier
  D = 0.0
  K = 0
  DO I = 1, 600
    D = D + C(I) + A(I) * REAL(MOD(I, 7))
    K = K + M(I) * MOD(I, 11)
  End DO
  Print 'temps', D, K, W
End Barrier
Join
`},
	// A temporary on the left of an operator whose right is a buffer its
	// subexpression fills — the index, REAL(I), D + 1.0, a sum of two
	// buffered terms: the right fills the statement's own buffer, and a
	// body needs no buffer past the ones its compilation counted.  The
	// arrays are set in a Barrier, so the first DOALL starts with a
	// process's buffers unsized and the second its REAL ones.
	{"block-temporary-left", 0, `Force BTML of NP ident ME
Shared Real A(600), B(600), C(600), G(600), H(600)
Shared Integer L(600), N(600)
Private Real D
Private Integer I, K
End Declarations
Barrier
  DO I = 1, 600
    A(I) = REAL(MOD(I * 37, 101)) / 8.0 - 6.0
    C(I) = REAL(MOD(I * 53, 89)) / 4.0
    L(I) = MOD(I * 7, 13) - 6
  End DO
End Barrier
Presched DO I = 1, 600
  K = L(I) * 2
  N(I) = K - I
End Presched DO
Presched DO I = 1, 600
  D = A(I) * 0.5 - 1.0
  B(I) = D * REAL(I)
End Presched DO
Presched DO I = 1, 600
  D = A(I) - 1.0
  G(I) = D * (D + 1.0) + D * (A(I) * A(I) + C(I) * C(I))
  H(I) = D * (ABS(A(I)) + ABS(C(I)))
End Presched DO
Print 'left', ME, K, D
Barrier
  D = 0.0
  K = 0
  DO I = 1, 600
    D = D + B(I) + G(I) * 0.001 + H(I) * 0.01
    K = K + N(I) * MOD(I, 7)
  End DO
  Print 'sums', D, K
End Barrier
Join
`},
	// The conditional extremum: IF (x .GT. P) THEN P = x is P's MAX
	// recurrence, the mirrored P .LT. x too, and the .LT. twin an INTEGER
	// MIN; the strict compare keeps P on a NaN and on a signed zero's tie.
	// .GE. replaces P on a tie — a -0.0 after a +0.0 — though not on a NaN
	// (false, as every REAL relation but .NE. is on one), and a compare of
	// an INTEGER with a REAL P converts: both stay per iteration.
	{"block-conditional-extrema", 0, `Force BIFX of NP ident ME
Shared Real Z(12), V(600)
Shared Integer K(600)
Private Real P, Q, X
Private Integer I, LO, HI
End Declarations
Presched DO I = 1, 600
  V(I) = REAL(MOD(I * 37, 211)) / 16.0 - 5.0
  K(I) = MOD(I * 7919, 1009) - 500
End Presched DO
Barrier
  Z(1) = 0.0
  Z(2) = -1.0 * 0.0
  Z(3) = 0.0 / 0.0
  Z(4) = -2.5
  Z(5) = Z(2)
  Z(6) = Z(3)
  Z(7) = 0.0
  Z(8) = -2.5
  Z(9) = Z(2)
  Z(10) = 0.0
  Z(11) = Z(3)
  Z(12) = Z(2)
End Barrier
P = -100.0
LO = 1000
HI = -1000
Presched DO I = 1, 600
  IF (P .LT. V(I) * 2.0) THEN
    P = V(I) * 2.0
  End IF
  IF (K(I) .LT. LO) THEN
    LO = K(I)
  End IF
  IF (HI .LT. K(I) - I) THEN
    HI = K(I) - I
  End IF
End Presched DO
Print 'ifx', ME, P, LO, HI
P = Z(2)
Q = Z(1)
Presched DO I = 1, 12
  IF (Z(I) .GT. P) THEN
    P = Z(I)
  End IF
  IF (Z(I) .LT. Q) THEN
    Q = Z(I)
  End IF
End Presched DO
Print 'zeros', ME, P, Q, 1.0 / P, 1.0 / Q
P = Z(1)
Presched DO I = 1, 12
  IF (Z(I) .GE. P) THEN
    P = Z(I)
  End IF
End Presched DO
Print 'ge', ME, P, 1.0 / P
X = -1000.0
Presched DO I = 1, 600
  IF (K(I) .GT. X) THEN
    X = K(I)
  End IF
End Presched DO
Print 'mixed', ME, X
Join
`},
	// Operands read where they are: a literal, a shared uniform and a
	// quotient's divisor applied as scalars inside the operator's loop, a
	// scalar on the left (which stays a buffer: operands never commute),
	// elements on either side, and a later statement reading what an
	// earlier one stored.
	{"block-operand-scalar", 0, `Force BOPS of NP ident ME
Shared Real A(500), B(500), C(500)
Shared Integer X(500), Y(500)
Shared Integer K, T
Shared Real CHK
Private Integer I
End Declarations
Barrier
  K = 977
End Barrier
Presched DO I = 1, 500
  A(I) = REAL(I) * 0.37 - 40.0
  X(I) = I * I - 3000
End Presched DO
Presched DO I = 1, 500
  B(I) = A(I) * 0.999
  Y(I) = X(I) - K
  C(I) = (A(I) + B(I)) / 3.0
  A(I) = 1.0 - A(I)
  X(I) = K * X(I) + 7 - X(I) * 2
End Presched DO
Selfsched DO I = 1, 500
  C(I) = C(I) / 3.0 - 2.5 * B(I)
  Y(I) = 5 - Y(I) + K
End Selfsched DO
Barrier
  CHK = 0.0
  T = 0
  DO I = 1, 500
    CHK = CHK + A(I) + B(I) * 2.0 - C(I)
    T = T + X(I) - Y(I) * 3
  End DO
  Print 'scalar', CHK, T, A(1), B(500), C(250), X(77), Y(500)
End Barrier
Join
`},
	// Elements read in place at steps other than 1: coefficients 2 and -1,
	// a negative loop step dealt in blocks, and private recurrences, which
	// keep the cyclic deal, so a block steps by np.
	{"block-operand-strided", 0, `Force BOPST of NP ident ME
Shared Integer B(400), C(800), D(400)
Shared Real R(400), Q(800), U(400)
Shared Integer N, T
Shared Real CHK
Private Integer I, P
Private Real S
End Declarations
Barrier
  N = 400
End Barrier
Presched DO I = 1, N
  B(I) = I * 7 - 1000
  R(I) = REAL(I) * 0.25 - 17.125
End Presched DO
Presched DO I = 1, 2 * N
  C(I) = I * I - 5 * I
  Q(I) = 1.0 / REAL(I)
End Presched DO
Presched DO I = 1, N
  D(I) = C(2 * I - 1) + B(N + 1 - I)
  U(I) = Q(2 * I) * R(N + 1 - I) - Q(2 * I - 1) / R(I)
End Presched DO
Presched DO I = N, 1, -3
  D(I) = D(I) - C(2 * I) * B(I)
End Presched DO
P = 0
S = 0.5
Presched DO I = 1, N
  P = P + C(2 * I - 1) - B(N + 1 - I) * 3
  S = S + Q(2 * I) * R(N + 1 - I)
  U(I) = U(I) + R(N + 1 - I) / Q(2 * I - 1)
End Presched DO
Print 'strided', ME, P, S
Barrier
  T = 0
  CHK = 0.0
  DO I = 1, N
    T = T + D(I) * MOD(I, 7)
    CHK = CHK + U(I)
  End DO
  Print 'sums', T, CHK, D(1), D(400), U(1), U(400)
End Barrier
Join
`},
	// A 2-D array read in place along a uniform row and backwards along
	// another: the operator reads both elements inside its loop, one at step
	// 1 and one at step -1.
	{"block-operand-2d", 0, `Force BOP2D of NP ident ME
Shared Real M(6, 50), V(50)
Shared Integer G(6, 50), H(50)
Shared Integer R, T
Shared Real CHK
Private Integer I
End Declarations
Barrier
  R = 4
End Barrier
Presched DO I = 1, 50
  M(2, I) = 100.0 / REAL(I)
End Presched DO
Presched DO I = 1, 50
  M(4, I) = -REAL(I) / 3.0
End Presched DO
Presched DO I = 1, 50
  G(2, I) = I * 3037000499
End Presched DO
Presched DO I = 1, 50
  G(4, I) = 7 - I
End Presched DO
Presched DO I = 1, 50
  V(I) = M(R, I) * M(2, 51 - I)
  H(I) = G(R, I) * G(2, 51 - I) + G(R, 51 - I)
End Presched DO
Barrier
  CHK = 0.0
  T = 0
  DO I = 1, 50
    CHK = CHK + V(I) * REAL(MOD(I, 5))
    T = T + H(I) * MOD(I, 3)
  End DO
  Print '2d', CHK, T, V(1), V(50), H(25)
End Barrier
Join
`},
	// IEEE specials through the in-place operands: REAL division by
	// elements holding 0.0 and -0.0 (infinities of either sign, 0/0 a NaN,
	// infinity times a zero scalar a NaN) and INTEGER products that wrap.
	{"block-operand-specials", 0, `Force BOPSP of NP ident ME
Shared Real Z(64), Q(64), P(64)
Shared Integer K(64), W(64)
Shared Integer T
Private Integer I
End Declarations
Barrier
  DO I = 1, 64
    Z(I) = REAL(MOD(I, 5) - 2)
    IF (MOD(I, 10) .EQ. 7) THEN
      Z(I) = -1.0 * 0.0
    End IF
    K(I) = I * 2305843009213693952 + I
  End DO
End Barrier
Presched DO I = 1, 64
  Q(I) = 1.0 / Z(I)
  P(I) = Z(I) / Z(65 - I) - Q(I) * 0.0
  W(I) = K(I) * K(65 - I) - K(I) * 3
End Presched DO
Barrier
  T = 0
  DO I = 1, 64
    T = T + W(I)
  End DO
  Print 'specials', Q(2), Q(7), Q(4), Q(5), P(2), P(7), P(8), P(10), T, W(1), W(64)
End Barrier
Join
`},
	// INTEGER / and MOD by nonzero literals, which cannot raise, so the
	// bodies are block-evaluated: positive and negative divisors over
	// negative dividends (both truncate toward zero, MOD taking the
	// dividend's sign), -2⁶³ / -1 wrapping to -2⁶³ and MOD(-2⁶³, -1) = 0,
	// a quotient folded, and a MOD of a uniform hoisted.
	{"block-mod-div-literals", 0, `Force BMOD of NP ident ME
Shared Integer A(300), Q(300), R(300), U(300), M(4), D(4)
Shared Integer N, K, T
Private Integer I, P
End Declarations
Barrier
  N = 300
  K = -17
End Barrier
Presched DO I = 1, N
  A(I) = 150 - I * 7
End Presched DO
Presched DO I = 1, N
  Q(I) = A(I) / 4 + A(I) / (-3) - A(I) / -1
  R(I) = MOD(A(I), 5) * 100 + MOD(A(I), -6)
  U(I) = MOD(I - 200, 7) - (I - 200) / 7 + MOD(K, 5) * 1000
End Presched DO
Presched DO I = 1, 4
  M(I) = -9223372036854775807 - I
End Presched DO
Presched DO I = 1, 4
  D(I) = M(I) / (-1) + MOD(M(I), -1)
End Presched DO
P = 0
Presched DO I = 1, N
  P = P + A(I) / -8 - MOD(A(I), 9)
End Presched DO
Print 'quotients', ME, P
Barrier
  T = 0
  DO I = 1, N
    T = T + Q(I) * 3 + R(I) * 5 + U(I) * 7
  End DO
  Print 'moddiv', T, Q(1), Q(300), R(1), R(300), U(1), U(300)
  Print 'wrap', M(1), D(1), M(2), D(2), D(4)
End Barrier
Join
`},
	// A fold term that is an operator over elements, or an element and a
	// scalar, folds inside that operator's one loop: INTEGER and REAL sums,
	// negated sums, MAX and MIN, into shared accumulators and private
	// recurrences, element coefficients 1, 2 and -1, an INTEGER MOD term,
	// and a scalar left (a buffer, folded after it is filled).
	{"block-fold-products", 0, `Force BFOLD of NP ident ME
Shared Integer X(400), Y(800)
Shared Real F(400), G(800)
Shared Integer N, TOT, NEG, BIG, SMALL, MODS
Shared Real RBIG, RSMALL
Private Integer I, P, M
Private Real S, D
End Declarations
Barrier
  N = 400
End Barrier
Presched DO I = 1, 2 * N
  Y(I) = MOD(I * 37, 101) - 50
  G(I) = REAL(MOD(I * 13, 29)) * 0.125 - 1.7
End Presched DO
Presched DO I = 1, N
  X(I) = 3 - MOD(I * 11, 17)
  F(I) = 1.0 / REAL(I) - 0.55
End Presched DO
Presched DO I = 1, N
  TOT = TOT + X(I) * Y(2 * I)
  NEG = NEG - X(I) * 3
  BIG = MAX(BIG, X(I) * Y(N + 1 - I))
  SMALL = MIN(SMALL, Y(2 * I) - X(I))
  MODS = MODS + MOD(Y(2 * I), -7)
  RBIG = MAX(RBIG, F(I) * G(2 * I - 1))
  RSMALL = MIN(RSMALL, F(N + 1 - I) / 3.0)
End Presched DO
P = 0
M = -1000
S = 0.25
D = 0.0
Presched DO I = 1, N
  P = P + X(I) * Y(2 * I) - X(N + 1 - I) * 5 + 2 * X(I)
  S = S + F(I) * G(2 * I)
End Presched DO
Presched DO I = 1, N
  D = D - F(N + 1 - I) * 0.3
  M = MAX(M, X(I) * Y(I))
End Presched DO
Print 'private folds', ME, P, M, S, D
Barrier
  Print 'shared folds', TOT, NEG, BIG, SMALL, MODS, RBIG, RSMALL
End Barrier
Join
`},
	// Folded accumulators in a body run iteration by iteration (an IF
	// guards each update, so it is no element-wise body): a negated
	// INTEGER sum, INTEGER MAX and MIN, and REAL MAX and MIN whose
	// operands include NaNs and a -0.0, which the strict compare never
	// takes over the value held.
	{"per-iteration-folds", 0, `Force PFOLD of NP ident ME
Shared Integer K(300)
Shared Real V(300)
Shared Integer NEG, BIG, SMALL
Shared Real RBIG, RSMALL
Private Integer I
End Declarations
Presched DO I = 1, 300
  K(I) = MOD(I * 37, 101) - 50
  V(I) = REAL(MOD(I * 13, 29)) * 0.25 - 3.5
End Presched DO
Barrier
  V(1) = 0.0 / 0.0
  V(7) = -1.0 * 0.0
  V(150) = V(1)
  V(299) = V(7)
  NEG = 7
  BIG = -1000
  SMALL = 1000
  RBIG = -100.0
  RSMALL = 100.0
End Barrier
Presched DO I = 1, 300
  IF (K(I) .GT. -40) THEN
    NEG = NEG - K(I) * 3
    BIG = MAX(BIG, K(I) * 2 - I)
    SMALL = MIN(SMALL, K(I) + I)
    RBIG = MAX(RBIG, V(I))
    RSMALL = MIN(RSMALL, V(I) * 2.0)
  End IF
End Presched DO
Barrier
  Print 'per-iteration folds', NEG, BIG, SMALL, RBIG, RSMALL
End Barrier
Join
`},
}

// Fusion is the fusion-pass matrix: programs shaped so the chunk tier's
// fusion pass fires (or must provably decline).  Output must be
// byte-identical across every execution tier, at np in {1, 2, 8}, with
// fusion on and off.
var Fusion = []Program{
	// Three adjacent prescheduled DOALLs chained through disjoint
	// shared arrays: the region fuses into one join, two exit barriers
	// elided, because iteration i of every member runs on the same
	// process and only touches its own elements.
	{"fuse-presched-chain", 0, `Force FCHAIN of NP ident ME
Shared Real A(96)
Shared Real B(96)
Shared Real C(96)
Private Integer I
Private Real T
End Declarations
Presched DO I = 1, 96
  A(I) = REAL(I) * 0.5
End Presched DO
Presched DO I = 1, 96
  B(I) = A(I) + 1.0
End Presched DO
Presched DO I = 1, 96
  C(I) = A(I) + B(I)
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 96
    T = T + C(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	// The second DOALL reads A mirrored (A(97-I)): the combined uses of
	// A are NOT element-disjoint across iterations, so the region must
	// keep its barrier — fusing would let one process read elements a
	// peer has not written yet.
	{"fuse-overlap-declines", 0, `Force FMIRROR of NP ident ME
Shared Real A(96)
Shared Real B(96)
Private Integer I
Private Real T
End Declarations
Presched DO I = 1, 96
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 96
  B(I) = A(97 - I) * 2.0
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 96
    T = T + B(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	// A DOALL pair with a trailing GSUM of the (per-process final)
	// index variable: the reduction folds into the region's closing
	// collective instead of running its own episode.
	{"fuse-gsum-tail", 0, `Force FGSUM of NP ident ME
Shared Real A(80)
Shared Real B(80)
Shared Integer S
Private Integer I
Private Real T
End Declarations
Presched DO I = 1, 80
  A(I) = REAL(I) * 2.0
End Presched DO
Presched DO I = 1, 80
  B(I) = A(I) + 3.0
End Presched DO
GSUM S = I
Barrier
  T = 0.0
  DO I = 1, 80
    T = T + A(I) + B(I)
  End DO
  Print S, NINT(T)
End Barrier
Join
`},
	// A REAL GMAX tail: extrema fold bit-for-bit in any order, so the
	// REAL reduction folds into the join under every reduce strategy.
	{"fuse-gmax-real", 0, `Force FGMAX of NP ident ME
Shared Real A(72)
Shared Real TOP
Private Integer I
Private Real T
End Declarations
Presched DO I = 1, 72
  A(I) = REAL(I) * 1.5
End Presched DO
GMAX TOP = REAL(I) * 0.5
Barrier
  T = 0.0
  DO I = 1, 72
    T = T + A(I)
  End DO
  Print TOP, NINT(T)
End Barrier
Join
`},
	// A folded reduction whose result feeds the next DOALL: the second
	// region opens after the join, so every process reads the same
	// reduced value.
	{"fuse-reduce-feeds-doall", 0, `Force FFEED of NP ident ME
Shared Real A(60)
Shared Real B(60)
Shared Integer S
Private Integer I
Private Real T
End Declarations
Presched DO I = 1, 60
  A(I) = REAL(I)
End Presched DO
GSUM S = ME + 1
Presched DO I = 1, 60
  B(I) = A(I) + REAL(S)
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 60
    T = T + B(I)
  End DO
  Print S, NINT(T)
End Barrier
Join
`},
	// Two selfscheduled DOALLs with no cross-member references: safe to
	// fuse even though span assignment is dynamic, because no datum
	// written by one member is touched by the other.
	{"fuse-selfsched-pair", 0, `Force FSELF of NP ident ME
Shared Real A(120)
Shared Real B(120)
Private Integer I
Private Real T
End Declarations
Selfsched DO I = 1, 120
  A(I) = REAL(I) * 3.0
End Selfsched DO
Selfsched DO I = 1, 120
  B(I) = REAL(121 - I)
End Selfsched DO
Barrier
  T = 0.0
  DO I = 1, 120
    T = T + A(I) + B(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	// Selfscheduled members with a cross-member flow (B(I) = A(I)):
	// iteration i of different members may run on different processes,
	// so the region must NOT fuse even though the uses are disjoint —
	// the disjointness argument only holds under prescheduling.
	{"fuse-selfsched-conflict-declines", 0, `Force FSCON of NP ident ME
Shared Real A(90)
Shared Real B(90)
Private Integer I
Private Real T
End Declarations
Selfsched DO I = 1, 90
  A(I) = REAL(I) * 2.0
End Selfsched DO
Selfsched DO I = 1, 90
  B(I) = A(I) + 1.0
End Selfsched DO
Barrier
  T = 0.0
  DO I = 1, 90
    T = T + B(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	// A fusible pair where only the first member is mapping-insensitive
	// (the second stores ME-dependent values): the region needs ONE
	// iteration-to-process map, so fused it keeps the cyclic deal for
	// both members, and its output matches the unfused run, where the
	// first member alone is dealt in blocks.
	{"fuse-mixed-partition", 0, `Force FMIXP of NP ident ME
Shared Real A(48)
Shared Real B(48)
Private Integer I
Private Real T
End Declarations
Presched DO I = 1, 48
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 48
  B(I) = A(I) + REAL(ME * I)
End Presched DO
Barrier
  T = 0.0
  DO I = 1, 48
    T = T + B(I)
  End DO
  Print NINT(T)
End Barrier
Join
`},
	// The next five are about a Barrier RIDING the closing collective of
	// the construct before it (plan.Target.Rider): its section runs in
	// that collective's completing process instead of in an episode of its
	// own, and nothing the program can print may change.
	// The completing process stores a shared reduction target BEFORE the
	// section runs, and once: the section overwrites it, and no process
	// released afterwards may store the fold over that.
	{"ride-shared-overwrite", 0, `Force RSHR of NP ident ME
Shared Integer A(60)
Shared Integer S, BAD
Private Integer I, MINE
End Declarations
Barrier
  BAD = 0
End Barrier
MINE = 0
Selfsched DO I = 1, 60
  A(I) = I
  MINE = MINE + I
End Selfsched DO
GSUM S = MINE
Barrier
  Print 'sum', S
  S = S + 1000
End Barrier
IF (S .NE. 2830) THEN
  Critical C
    BAD = BAD + 1
  End Critical
End IF
Barrier
  Print 'after', S, 'clobbered', BAD
End Barrier
Join
`},
	// A private target is stored by every process — by the completing one
	// before its section reads (and here overwrites) it, by the others
	// after their release: exactly one process ends up with the
	// overwritten value.
	{"ride-private-target", 0, `Force RPRV of NP ident ME
Shared Integer A(40)
Shared Integer SEEN, KEPT
Private Integer I, MINE, TOT, HIT
End Declarations
MINE = 0
Presched DO I = 1, 40
  A(I) = I * 2
  MINE = MINE + I
End Presched DO
GSUM TOT = MINE
Barrier
  SEEN = TOT
  TOT = -1
End Barrier
HIT = 0
IF (TOT .EQ. 820) THEN
  HIT = 1
End IF
GSUM KEPT = HIT
Barrier
  Print 'section saw', SEEN, 'overwritten in', NP - KEPT
End Barrier
Join
`},
	// Standalone reductions — nothing to fuse with — carry the section in
	// their own release: INTEGER, REAL and LOGICAL, shared and private
	// targets, an empty Barrier.
	{"ride-standalone-reductions", 0, `Force RSTD of NP ident ME
Shared Integer TOTAL, COUNT
Shared Real RSUM, RSEEN
Shared Logical ANY, ALL
Private Integer MINE
Private Real X, XS
Private Logical B
End Declarations
MINE = 3
GSUM TOTAL = MINE
Barrier
  COUNT = TOTAL / 3
  TOTAL = TOTAL + 1
End Barrier
X = 0.5
GSUM XS = X
Barrier
  RSEEN = XS
End Barrier
B = MINE .GT. 2
GAND ALL = B
Barrier
  Print 'count', COUNT - NP, 'total', TOTAL - 3 * COUNT, 'all', ALL
End Barrier
B = ME .EQ. NP
GOR ANY = B
Barrier
End Barrier
GMAX RSUM = X + 1.0
Barrier
  Print 'any', ANY, 'real', NINT(RSEEN * 2.0) - NP, NINT(RSUM * 10.0)
End Barrier
Join
`},
	// A DOALL's exit carries the section: a body with no plan (Critical),
	// a two-index loop, a zero-trip loop, and an empty Barrier that simply
	// disappears — the Barrier behind it is an episode of its own again.
	{"ride-doall-exits", 0, `Force RDEX of NP ident ME
Shared Integer A(6, 5), V(30)
Shared Integer S, T, Z
Private Integer I, J
End Declarations
Barrier
  S = 0
  Z = 7
End Barrier
Presched DO I = 1, 30
  Critical TALLY
    S = S + I
  End Critical
End Presched DO
Barrier
  Print 'critical sum', S
  S = 0
End Barrier
Selfsched DO I = 1, 6 also J = 1, 5
  A(I, J) = I * 10 + J
End Selfsched DO
Barrier
  T = 0
  DO I = 1, 6
    DO J = 1, 5
      T = T + A(I, J)
    End DO
  End DO
  Print 'pairs', T
End Barrier
Selfsched DO I = 5, 1
  V(I) = 99
End Selfsched DO
Barrier
  Z = Z + 1
End Barrier
Presched DO I = 1, 30
  V(I) = Z + I
End Presched DO
Barrier
End Barrier
Barrier
  Print 'empty loop', Z, V(1), V(30), 'reset', S
End Barrier
Join
`},
	// Riders in nested statement lists: inside an IF inside a sequential
	// DO, and in a subroutine whose DOALL writes through a parameter.
	{"ride-nested-lists", 0, `Force RNST of NP ident ME
Shared Integer A(24), B(24)
Shared Integer S, ROUNDS
Private Integer I, R, MINE
End Declarations
Barrier
  ROUNDS = 0
End Barrier
DO R = 1, 3
  IF (R .NE. 2) THEN
    MINE = 0
    Selfsched DO I = 1, 24
      A(I) = I * R
      MINE = MINE + I * R
    End Selfsched DO
    GSUM S = MINE
    Barrier
      ROUNDS = ROUNDS + S
    End Barrier
  ELSE
    Call FILL(B, R)
  End IF
End DO
Barrier
  Print 'rounds', ROUNDS, A(24), B(24)
End Barrier
Join
Forcesub FILL(X, K)
Shared Integer X(24)
Private Integer K
Shared Integer LAST
Private Integer I
End Declarations
Presched DO I = 1, 24
  X(I) = I + K
End Presched DO
Barrier
  LAST = X(24)
  X(24) = LAST * 2
End Barrier
Endsub
`},
}

// Reductions is the standalone-reduction matrix: every reduction below
// closes a collective of its own (a region with no members), and every
// value printed is independent of the order contributions meet in — so
// the output is one and the same on every tier, at every np, with the
// fusion pass on and off, and under both reduction strategies.
var Reductions = []Program{
	// All six operators into a shared and a private scalar, each ridden
	// by a Barrier whose section reads the target and overwrites it; what
	// one process overwrote in its private copy shows in a later,
	// symmetric reduction.
	{"reduce-scalars-ridden", 0, `Force RSIX of NP ident ME
Shared Integer SI
Shared Real SR
Shared Logical SL
Private Integer PI, K
Private Real PR, X
Private Logical PL
End Declarations
K = ME + 1
X = 0.5 * REAL(K)
GSUM SI = K
Barrier
  Print 'gsum shared', SI
  SI = SI + 100
End Barrier
GSUM PI = SI
Barrier
  Print 'gsum private', PI
  PI = 0
End Barrier
GSUM SI = PI
Barrier
  Print 'one process overwrote its sum', SI
End Barrier
GPROD SR = 1.0 + REAL(MOD(ME, 2))
Barrier
  Print 'gprod shared', SR
  SR = SR * 0.5
End Barrier
GPROD PI = MOD(K, 3) + NINT(SR + SR)
Barrier
  Print 'gprod private', PI
  PI = 0
End Barrier
GMAX SI = PI + 5
Barrier
  Print 'gmax shared', SI
  SI = -SI
End Barrier
GMAX PR = X + REAL(SI)
Barrier
  Print 'gmax private', PR
  PR = 1000.0
End Barrier
GMIN SR = PR
Barrier
  Print 'gmin shared', SR
  SR = SR - 0.5
End Barrier
GMIN PI = K * K - NINT(SR)
Barrier
  Print 'gmin private', PI
  PI = PI - 1
End Barrier
GMIN SI = PI
Barrier
  Print 'one process lowered its minimum', SI
End Barrier
GAND SL = SI .LT. 0
Barrier
  Print 'gand shared', SL
  SL = .NOT. SL
End Barrier
GAND PL = SL .OR. ME .GE. 0
Barrier
  Print 'gand private', PL
  PL = .FALSE.
End Barrier
GOR SL = PL
Barrier
  Print 'gor shared', SL
  SL = .FALSE.
End Barrier
GOR PL = SL .OR. ME .EQ. NP - 1
Barrier
  Print 'gor private', PL
  PL = .FALSE.
End Barrier
GAND SL = PL
Barrier
  Print 'one process cleared its flag', SL
End Barrier
Join
`},
	// All six into a shared array element each process subscripts for
	// itself, and into by-reference parameters aliasing a private scalar,
	// a shared scalar and a shared array element.
	{"reduce-elements-params", 0, `Force RARR of NP ident ME
Shared Integer A(16), SI
Shared Real RA(16), SR
Shared Logical LA(16), SL
Private Integer PI, K, I
Private Real PR
Private Logical PL
End Declarations
K = ME + 1
GSUM A(K) = K
GPROD A(K + 8) = MOD(K, 2) + 1
GMAX RA(K) = 0.5 * REAL(K)
GMIN RA(K + 8) = 4.0 - REAL(K)
GAND LA(K) = K .GT. 0
GOR LA(K + 8) = K .EQ. 9
Barrier
  DO I = 1, NP
    Print 'element', I, A(I), A(I + 8), RA(I), RA(I + 8), LA(I), LA(I + 8)
  End DO
  Print 'untouched', A(NP + 1), RA(NP + 1), LA(NP + 1)
End Barrier
Call RED(PI, PR, PL)
Print 'private arguments', ME, PI, PR, PL
Call RED(SI, SR, SL)
Barrier
  Print 'shared scalar arguments', SI, SR, SL
End Barrier
Call RED(A(K), RA(K), LA(K))
Barrier
  DO I = 1, NP
    Print 'element arguments', I, A(I), RA(I), LA(I)
  End DO
End Barrier
Join
Forcesub RED(N, R, L)
Shared Integer N
Shared Real R
Shared Logical L
Private Integer K
End Declarations
K = ME + 1
GSUM N = K * 2
Barrier
End Barrier
GPROD N = N / NP - MOD(K, 2)
Barrier
End Barrier
GMAX R = REAL(N) + 0.5 * REAL(K)
Barrier
End Barrier
GMIN R = R - REAL(K)
Barrier
End Barrier
GAND L = R .LT. REAL(N)
Barrier
End Barrier
GOR L = L .AND. K .EQ. 1
Endsub
`},
	// A reduction directly behind a fused region's join — one whose
	// operand reads what the region wrote, so it cannot be the tail — and
	// behind a join that already folded a tail.
	{"reduce-behind-join", 0, `Force RBEHIND of NP ident ME
Shared Integer A(32), B(32), COUNT, TOTAL, PEAK
Private Integer I, MINE
End Declarations
MINE = 0
Presched DO I = 1, 32
  A(I) = I
End Presched DO
Presched DO I = 1, 32
  B(I) = 2 * I
End Presched DO
GSUM TOTAL = A(ME + 1) + B(32 - ME)
Presched DO I = 1, 32
  A(I) = A(I) + 1
End Presched DO
Presched DO I = 1, 32
  MINE = MINE + B(I)
End Presched DO
GSUM COUNT = MINE
GMAX PEAK = A(ME + 1) * COUNT
Barrier
  Print 'behind the join', TOTAL, COUNT, PEAK
  PEAK = 0
End Barrier
GMIN PEAK = PEAK - ME
Barrier
  Print 'after the section', PEAK
End Barrier
Join
`},
	// REAL operands into INTEGER targets and INTEGER operands into REAL
	// ones: the operand converts before it combines, in every target class.
	{"reduce-coercion", 0, `Force RCOERCE of NP ident ME
Shared Integer SI, A(8)
Shared Real SR
Private Integer PI, K
Private Real PR
End Declarations
K = ME + 1
GSUM SI = 2.75 * REAL(K)
GMAX PI = 0.5 * REAL(K) + 0.75
GPROD SR = MOD(K, 2) + 1
GMIN PR = 7 - K
GSUM A(K) = REAL(K) / 2.0
Barrier
  Print 'real operands, integer targets', SI, A(1)
  Print 'integer operands, real targets', SR
End Barrier
Print 'private targets', ME, PI, PR
Call INTO(PR, PI)
Print 'parameter targets', ME, PI, PR
Join
Forcesub INTO(R, N)
Private Real R
Private Integer N
End Declarations
GSUM R = ME + 1
GMAX N = 1.9 + REAL(ME)
Endsub
`},
}

// FusionFaults is the planned-construct fault matrix: the error strikes
// in the middle of a fused region (the second member, on only the process
// owning the faulting index once np > 1), in a barrier section riding a
// closing collective, or at a span-checked element reference, and every
// tier — with fusion on and off — must
// abort the whole force with the identical "force runtime: line N: ..."
// message naming the faulting statement's line (line 10 in every row),
// not the region's.
var FusionFaults = []Program{
	{"fault-in-second-member", 0, `Force FFAULT of NP ident ME
Shared Real A(40)
Shared Real B(40)
Private Integer I
End Declarations
Presched DO I = 1, 40
  A(I) = REAL(I)
End Presched DO
Presched DO I = 1, 40
  B(I) = REAL(100 / (I - 20))
End Presched DO
Join
`},
	// A run-time error inside a RIDDEN barrier section — riding a DOALL's
	// exit, a fused join and a standalone reduction's release — aborts the
	// force from inside the closing collective with the message the
	// Barrier's own episode gives.
	{"fault-in-ridden-exit-section", 0, `Force FRIDE of NP ident ME
Shared Integer A(40)
Shared Integer S
Private Integer I
End Declarations
Presched DO I = 1, 40
  A(I) = I - 1
End Presched DO
Barrier
  S = 100 / A(1)
End Barrier
Join
`},
	{"fault-in-ridden-join-section", 0, `Force FRJOIN of NP ident ME
Shared Integer A(40), S
Private Integer I
End Declarations
Selfsched DO I = 1, 40
  A(I) = I - 1
End Selfsched DO
GSUM S = I - I
Barrier
  S = 100 / S
End Barrier
Join
`},
	{"fault-in-ridden-reduce-section", 0, `Force FRRED of NP ident ME
Shared Integer S
Shared Logical ANY
Private Logical B
End Declarations
S = 0
B = ME .GT. NP
GOR ANY = B
Barrier
  S = 100 / S
End Barrier
Join
`},
	// The next four strike inside a span-checked body: the span holding the
	// offending index fails the end-point test, runs the checked body, and
	// raises at the reference — exactly one index offends, at the first, a
	// middle and the last iteration of the range and through a wrapping
	// coefficient, so the message is the same whichever process and span
	// meets it.
	{"fault-at-span-first", 0, `Force SFIRST of NP ident ME
Shared Integer A(40), B(40)
Private Integer I
End Declarations
Presched DO I = 1, 40
  B(I) = I
End Presched DO
Presched DO I = 1, 40
  A(I) = 0
  A(I) = A(I) + B(I - 1)
End Presched DO
Join
`},
	{"fault-at-span-middle", 0, `Force SMID of NP ident ME
Shared Integer A(40), B(40)
Private Integer I
End Declarations
Presched DO I = 1, 40
  B(I) = I
End Presched DO
Selfsched DO I = 1, 40
  IF (I .EQ. 20) THEN
    A(I) = B(I + 100)
  End IF
End Selfsched DO
Join
`},
	{"fault-at-span-last", 0, `Force SLAST of NP ident ME
Shared Integer A(40), B(40), N
Private Integer I
End Declarations
Barrier
  N = 40
End Barrier
Presched DO I = 1, N
  A(I) = I
  A(I) = A(I) + B(I + 1)
End Presched DO
Join
`},
	{"fault-at-wrapping-subscript", 0, `Force SWRAP of NP ident ME
Shared Integer A(40), B(40)
Private Integer I
End Declarations
Barrier
End Barrier

Presched DO I = 0, 1
  A(I + 1) = I
  B(4611686018427387904 * I + 1) = 1
End Presched DO
Join
`},
}
