package vet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/forcelang"
)

func analyzeSrc(t *testing.T, src string) []Diagnostic {
	t.Helper()
	prog, err := forcelang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	diags, err := Analyze(prog)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	return diags
}

// codeLines renders diagnostics as "CODE@line" for compact golden
// comparison.
func codeLines(diags []Diagnostic) string {
	parts := make([]string, len(diags))
	for i, d := range diags {
		parts[i] = fmt.Sprintf("%s@%d", d.Code, d.Line)
	}
	return strings.Join(parts, " ")
}

// TestNonUniformCorpus pins the exact code and line forcevet reports for
// every program in the PR-4 non-uniform abort corpus: each one must be
// caught statically, at the faulting (or protocol-breaking) statement.
func TestNonUniformCorpus(t *testing.T) {
	want := map[string]string{
		"before-a-barrier":              "FV002@5",
		"inside-critical":               "FV002@7",
		"inside-doall-body":             "FV002@7",
		"peer-waits-in-askfor":          "FV002@5",
		"consume-never-produced":        "FV201@6 FV002@9",
		"reduction-missing-contributor": "FV002@6",
	}
	for _, p := range corpus.NonUniform {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			got := codeLines(analyzeSrc(t, p.Src))
			if got != want[p.Name] {
				t.Errorf("diagnostics = %q, want %q", got, want[p.Name])
			}
		})
	}
}

// TestRuntimeErrorCorpus pins the uniform-path fault warnings for the
// PR-4 uniform fault corpus.
func TestRuntimeErrorCorpus(t *testing.T) {
	want := map[string]string{
		"subscript":     "FV003@4",
		"subscript-2d":  "FV003@6",
		"div-zero":      "FV003@4",
		"sqrt-negative": "FV003@4",
		"mod-zero":      "FV003@4",
		"zero-step":     "FV003@4",
		"async-bounds":  "FV003@4",
		// Every iteration of a DOALL that runs at least once faults.
		"mod-zero-doall": "FV003@6",
		// Iteration 8 reads what iterations 1 and 7 store: the race is
		// the probe (the program is pinned at np = 1).
		"span-earlier-stores": "FV101@6",
	}
	for _, p := range corpus.RuntimeErrors {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			got := codeLines(analyzeSrc(t, p.Src))
			if got != want[p.Name] {
				t.Errorf("diagnostics = %q, want %q", got, want[p.Name])
			}
		})
	}
}

// TestCleanCorpus: the equivalence corpus, the chunk matrix, the fusion
// matrix and the reduction matrix are correct programs — forcevet must
// stay silent on every one (zero false positives).
func TestCleanCorpus(t *testing.T) {
	for _, fam := range []struct {
		name  string
		progs []corpus.Program
	}{{"equiv", corpus.Equiv}, {"chunk", corpus.Chunk}, {"fusion", corpus.Fusion}, {"reductions", corpus.Reductions}} {
		for _, p := range fam.progs {
			p := p
			t.Run(fam.name+"/"+p.Name, func(t *testing.T) {
				if diags := analyzeSrc(t, p.Src); len(diags) != 0 {
					t.Errorf("unexpected diagnostics:\n%s", renderAll(diags))
				}
			})
		}
	}
}

// TestCleanExamples: every .force source shipped in examples/ must be
// diagnostic-free.
func TestCleanExamples(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*/*.force")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example sources found: %v", err)
	}
	for _, path := range paths {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if diags := analyzeSrc(t, string(src)); len(diags) != 0 {
				t.Errorf("unexpected diagnostics:\n%s", renderAll(diags))
			}
		})
	}
}

func renderAll(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "  %s\n", d)
	}
	return b.String()
}

// --- FV001: collective consistency ------------------------------------

func TestFV001BarrierUnderVaryingBranch(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
End Declarations
IF (ME .EQ. 0) THEN
Barrier
End Barrier
END IF
Join
`)
	if got := codeLines(diags); got != "FV001@4" {
		t.Errorf("got %q, want FV001@4\n%s", got, renderAll(diags))
	}
	if diags[0].Sev != Error {
		t.Error("FV001 must be an error")
	}
	if !strings.Contains(diags[0].Message, "Barrier") {
		t.Errorf("message should name the construct: %s", diags[0].Message)
	}
}

func TestFV001ReductionUnderVaryingBranch(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
IF (ME .GT. 0) THEN
GSUM S = ME
END IF
Join
`)
	if got := codeLines(diags); got != "FV001@5" {
		t.Errorf("got %q, want FV001@5\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "GSUM") {
		t.Errorf("message should name the operator: %s", diags[0].Message)
	}
}

func TestFV001DoallUnderVaryingWhile(t *testing.T) {
	// The varying condition flows through an assignment chain first.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real A(10)
Private Integer I, K
End Declarations
K = ME + 1
IF (K .GT. 1) THEN
Presched DO I = 1, 10
A(I) = 1.0
End Presched DO
END IF
Join
`)
	if got := codeLines(diags); got != "FV001@7" {
		t.Errorf("got %q, want FV001@7\n%s", got, renderAll(diags))
	}
}

func TestFV001ThroughCall(t *testing.T) {
	// The collective hides inside a subroutine; the call site under the
	// varying branch is flagged.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
IF (ME .EQ. 0) THEN
Call SYNC()
END IF
Join
Forcesub SYNC()
End Declarations
Barrier
End Barrier
Endsub
`)
	if got := codeLines(diags); got != "FV001@5" {
		t.Errorf("got %q, want FV001@5\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "call site") {
		t.Errorf("message should mention the call site: %s", diags[0].Message)
	}
}

func TestFV001VaryingFromConsume(t *testing.T) {
	// A consumed value is varying: each process may read a different
	// cell state, so a collective guarded by it is inconsistent.
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer V
Private Integer I
End Declarations
Produce V = 1
Consume V into I
IF (I .EQ. 1) THEN
Barrier
End Barrier
END IF
Join
`)
	if got := codeLines(diags); got != "FV001@8" {
		t.Errorf("got %q, want FV001@8\n%s", got, renderAll(diags))
	}
}

func TestFV001UniformGuardIsClean(t *testing.T) {
	// A collective under a branch on uniform shared data is fine.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer N
Shared Real A(10)
Private Integer I
End Declarations
Barrier
N = 5
End Barrier
IF (N .GT. 0) THEN
Presched DO I = 1, 10
A(I) = 1.0
End Presched DO
END IF
Join
`)
	if len(diags) != 0 {
		t.Errorf("uniform guard should be clean:\n%s", renderAll(diags))
	}
}

// --- FV002/FV003 details ----------------------------------------------

func TestFV002LoopRangeWitness(t *testing.T) {
	// The divisor hits zero at I = 7 within the loop's range.
	diags := analyzeSrc(t, `Force T of NP ident ME
Private Integer I, K
End Declarations
IF (ME .EQ. 0) THEN
DO I = 1, 10
K = 100 / (I - 7)
End DO
END IF
Join
`)
	if got := codeLines(diags); got != "FV002@6" {
		t.Errorf("got %q, want FV002@6\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "I = 7") {
		t.Errorf("message should name the witness: %s", diags[0].Message)
	}
}

func TestFV002StrideMissesZero(t *testing.T) {
	// I runs 1,3,...,9: never 7±0 divisor zero? (I-7) = 0 at I=7 which
	// the stride does hit; (I-8) = 0 at I=8 which it does not.
	diags := analyzeSrc(t, `Force T of NP ident ME
Private Integer I, K
End Declarations
IF (ME .EQ. 0) THEN
DO I = 1, 9, 2
K = 100 / (I - 8)
End DO
END IF
Join
`)
	if len(diags) != 0 {
		t.Errorf("stride 2 never reaches I=8, should be clean:\n%s", renderAll(diags))
	}
}

func TestFV003RealDivisionNeverFaults(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Private Real X
End Declarations
X = 1.0 / 0.0
Join
`)
	if len(diags) != 0 {
		t.Errorf("real division follows IEEE semantics, no fault:\n%s", renderAll(diags))
	}
}

// TestFV003OnlyIntegerModFaults: a REAL MOD by zero is a NaN, not a
// fault (README, "Run-time checks"), whether the zero is spelled REAL or
// converted, at top level or in a Barrier section; an INTEGER MOD by zero
// is still reported, as a fault every process provably reaches at top
// level and as one under a non-uniform condition in a section.
func TestFV003OnlyIntegerModFaults(t *testing.T) {
	for _, tc := range []struct{ stmt, want string }{
		{"Y = MOD(X, 0)", ""},
		{"Y = MOD(X, 0.0)", ""},
		{"Barrier\nY = MOD(X, 0)\nEnd Barrier", ""},
		{"Barrier\nY = MOD(X, 0.0)\nEnd Barrier", ""},
		{"K = MOD(I, 0)", "FV003@6"},
		{"Barrier\nK = MOD(I, 0)\nEnd Barrier", "FV002@7"},
	} {
		diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real Y
Private Real X
Private Integer I, K
End Declarations
`+tc.stmt+`
Join
`)
		if got := codeLines(diags); got != tc.want {
			t.Errorf("%q: got %q, want %q\n%s", tc.stmt, got, tc.want, renderAll(diags))
		}
	}
}

// TestFV003EveryIteration: a fault inside a DOALL body is proven for the
// run — FV003, not FV002 — when its operands read neither the loop index
// nor anything the body writes, no varying IF or nested loop guards it, and
// the trip count folds to a nonzero constant: whichever process takes the
// first iteration faults.
func TestFV003EveryIteration(t *testing.T) {
	for _, tc := range []struct{ head, body, want string }{
		{"Presched DO I = 1, 64", "A(I) = MOD(I, K)", "FV003@7"},
		{"Selfsched DO I = 64, 1, -1", "A(I) = I / K", "FV003@7"},
		{"Presched DO I = 1, 2 also J = 1, 3", "D(I, J) = A(0)", "FV003@7"},
		{"Presched DO I = 1, 64", "IF (K .EQ. 0) THEN\nA(I) = MOD(I, K)\nEnd IF", "FV003@8"},
		// The trip count does not fold, or folds to zero.
		{"Presched DO I = 1, N", "A(I) = MOD(I, K)", "FV002@7"},
		{"Presched DO I = 1, 0", "A(I) = MOD(I, K)", "FV002@7"},
		{"Presched DO I = 1, 2 also J = 3, 1", "D(I, J) = A(0)", "FV002@7"},
		// The operand reads the index or what the body writes.
		{"Presched DO I = 1, 64", "A(I) = MOD(I, I - 7)", "FV002@7"},
		{"Presched DO I = 1, 64", "M = 0\nA(I) = MOD(I, M)", "FV002@8"},
		// A varying IF or a nested loop guards the fault.
		{"Presched DO I = 1, 64", "IF (I .GT. 3) THEN\nA(I) = MOD(I, K)\nEnd IF", "FV002@8"},
		{"Presched DO I = 1, 64", "DO M = 1, I\nA(I) = MOD(I, K)\nEnd DO", "FV002@8"},
	} {
		src := "Force T of NP ident ME\nShared Integer A(64), D(2, 3), N\nPrivate Integer I, J, K, M\nEnd Declarations\nK = 0\n" +
			tc.head + "\n" + tc.body + "\nEnd " + strings.Fields(tc.head)[0] + " DO\nJoin\n"
		if got := codeLines(analyzeSrc(t, src)); got != tc.want {
			t.Errorf("%s / %q: got %q, want %q", tc.head, tc.body, got, tc.want)
		}
	}
	// Reached under a varying condition, the DOALL is a skipped collective.
	diags := analyzeSrc(t, "Force T of NP ident ME\nShared Integer A(64)\nPrivate Integer I, K\nEnd Declarations\nK = 0\n"+
		"IF (ME .EQ. 0) THEN\nPresched DO I = 1, 64\nA(I) = MOD(I, K)\nEnd Presched DO\nEnd IF\nJoin\n")
	if got := codeLines(diags); got != "FV001@7 FV002@8" {
		t.Errorf("under a varying IF: got %q, want FV001@7 FV002@8\n%s", got, renderAll(diags))
	}
}

// TestFV003ConversionSpelledOrNot: the checker places an implicit
// conversion as the REAL node a program may spell, so a provable fault is
// found through either spelling, with the value the run-time check sees.
func TestFV003ConversionSpelledOrNot(t *testing.T) {
	for _, arg := range []string{"-4", "REAL(-4)", "1 / 2 - 4"} {
		diags := analyzeSrc(t, `Force T of NP ident ME
Private Real X
End Declarations
X = SQRT(`+arg+`)
Join
`)
		if got := codeLines(diags); got != "FV003@4" || !strings.Contains(diags[0].Message, "SQRT of negative value -4") {
			t.Errorf("SQRT(%s): got %q, want FV003@4 naming -4\n%s", arg, got, renderAll(diags))
		}
	}
}

// --- FV101: shared-memory races ---------------------------------------

func TestFV101SharedScalarInDoall(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 10
S = S + 1.0
End Presched DO
Join
`)
	if got := codeLines(diags); got != "FV101@6" {
		t.Errorf("got %q, want FV101@6\n%s", got, renderAll(diags))
	}
	if diags[0].Sev != Warning {
		t.Error("FV101 is a warning")
	}
	// A loop header stores to its index: a shared sequential-DO index is
	// written by every iteration of every process.
	diags = analyzeSrc(t, `Force T of NP ident ME
Shared Integer K
Shared Real A(8)
Private Integer I
End Declarations
Presched DO I = 1, 8
DO K = 1, 2
A(I) = REAL(I)
End DO
End Presched DO
Join
`)
	if got := codeLines(diags); got != "FV101@7" {
		t.Errorf("shared DO index: got %q, want FV101@7\n%s", got, renderAll(diags))
	}
}

func TestFV101CriticalMakesItClean(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 10
Critical L
S = S + 1.0
End Critical
End Presched DO
Join
`)
	if len(diags) != 0 {
		t.Errorf("single-critical access should be clean:\n%s", renderAll(diags))
	}
}

func TestFV101TwoDifferentCriticals(t *testing.T) {
	// Two different locks exclude nothing.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real S
Private Integer I
End Declarations
Presched DO I = 1, 10
IF (I .GT. 5) THEN
Critical L1
S = S + 1.0
End Critical
ELSE
Critical L2
S = S + 1.0
End Critical
END IF
End Presched DO
Join
`)
	if got := codeLines(diags); got != "FV101@8" {
		t.Errorf("got %q, want FV101@8\n%s", got, renderAll(diags))
	}
}

// fv101Case is one parallel body and the FV101 diagnostics it draws.
type fv101Case struct{ name, decls, body, want string }

// runFV101 analyzes each body as lines 6.. of a program whose
// declarations take lines 2..4.
func runFV101(t *testing.T, cases []fv101Case) {
	t.Helper()
	for _, tc := range cases {
		if n := strings.Count(tc.decls, "\n"); n != 3 {
			t.Fatalf("%s: %d declaration lines, want 3", tc.name, n)
		}
		diags := analyzeSrc(t, "Force T of NP ident ME\n"+tc.decls+"End Declarations\n"+tc.body+"Join\n")
		if got := codeLines(diags); got != tc.want {
			t.Errorf("%s: got %q, want %q\n%s", tc.name, got, tc.want, renderAll(diags))
		}
	}
}

// TestFV101IntAccumulatorIsClean: the shared accumulate is clean exactly
// when internal/plan folds it — every write of the scalar is one
// accumulate shape (INTEGER S ± e, INTEGER or REAL MAX / MIN) over one
// operator and the scalar is read nowhere else.  Every tier executes
// such a statement as one atomic update.
func TestFV101IntAccumulatorIsClean(t *testing.T) {
	const decls = "Shared Integer S, TOP\nShared Real R, BIG, A(100)\nPrivate Integer I, W\n"
	doall := func(sched, stmts string) string {
		return sched + " DO I = 1, 100\n" + stmts + "End " + sched + " DO\n"
	}
	runFV101(t, []fv101Case{
		{"integer sum", decls, doall("Selfsched", "S = S + I\n"), ""},
		{"integer sum and difference", decls, doall("Presched", "S = S + I\nS = S - 1\n"), ""},
		{"integer MAX", decls, doall("Presched", "TOP = MAX(TOP, I)\n"), ""},
		{"integer MIN", decls, doall("Selfsched", "TOP = MIN(TOP, I * 2)\n"), ""},
		{"real MAX", decls, doall("Presched", "BIG = MAX(BIG, A(I))\n"), ""},
		{"real MIN", decls, doall("Selfsched", "BIG = MIN(BIG, A(I) * 0.5)\n"), ""},
		{"sum beside MAX", decls, doall("Presched", "S = S + I\nTOP = MAX(TOP, I)\n"), ""},
		{"kept per-iteration by a Print", decls, doall("Presched", "TOP = MAX(TOP, I)\nPrint I\n"), ""},
		{"in an Askfor body", decls, "Askfor W = 3\nTOP = MAX(TOP, W)\nEnd Askfor\n", ""},
		{"mixed operators on one scalar", decls, doall("Presched", "S = S + I\nS = MAX(S, I)\n"), "FV101@7"},
		{"real sum", decls, doall("Presched", "R = R + 1.0\n"), "FV101@7"},
		{"promoting MAX into an INTEGER", decls, doall("Presched", "S = MAX(S, R)\n"), "FV101@7"},
		{"swapped MAX arguments", decls, doall("Presched", "TOP = MAX(I, TOP)\n"), "FV101@7"},
		{"mid-body read", decls, doall("Presched", "S = S + I\nA(I) = REAL(S)\n"), "FV101@7"},
	})
}

// TestFV101DisjointArrayIsClean: one injective affine subscript form —
// also through an index temporary, whose single top-level assignment
// precedes every use.
func TestFV101DisjointArrayIsClean(t *testing.T) {
	const decls = "Shared Real A(101)\nPrivate Integer I, K\nPrivate Real T\n"
	runFV101(t, []fv101Case{
		{"A(I+1)", decls, "Presched DO I = 1, 10\nA(I + 1) = REAL(I)\nEnd Presched DO\n", ""},
		{"index temporary", decls, "Presched DO I = 1, 10\nK = I + 1\nA(K - 1) = REAL(I)\nEnd Presched DO\n", ""},
	})
}

// TestFV101OverlappingArrayForms: two subscript forms collide across
// iterations, and an index temporary proves nothing unless its one
// assignment is an unconditional top-level statement ahead of its uses.
func TestFV101OverlappingArrayForms(t *testing.T) {
	const decls = "Shared Real A(101)\nPrivate Integer I, J, K\nPrivate Real T\n"
	doall := func(stmts string) string { return "Presched DO I = 1, 100\n" + stmts + "End Presched DO\n" }
	runFV101(t, []fv101Case{
		// A(I) and A(I+1) collide across iterations.
		{"A(I+1) = A(I)", decls, doall("A(I + 1) = A(I) + 1.0\n"), "FV101@7"},
		// K still holds the previous iteration's (or the entry) value.
		{"use before definition", decls, "K = 5\n" + doall("A(K) = REAL(I)\nK = I + 1\n"), "FV101@8"},
		// K is I + 1 only in some iterations.
		{"conditional definition", decls, "K = 5\n" + doall("IF (I .GT. 50) THEN\nK = I + 1\nEND IF\nA(K) = REAL(I)\n"), "FV101@11"},
		// A zero-trip DO would leave K undefined.
		{"definition inside a sequential DO", decls, doall("DO J = 1, 2\nK = I + 1\nEnd DO\nA(K) = REAL(I)\n"), "FV101@10"},
		{"two definitions", decls, doall("K = I + 1\nK = 2 * I\nA(K) = REAL(I)\n"), "FV101@9"},
		// One form, a nonzero coefficient — and A(1) at I = 0 and at I = 4:
		// 2^62 * 4 wraps to 0 (uniform.Space.Coef bounds what it answers for).
		{"wrapping coefficient", decls, "Presched DO I = 0, 4, 4\nA(4611686018427387904 * I + 1) = REAL(I + 10)\nEnd Presched DO\n", "FV101@7"},
	})
}

func TestFV101AskforBody(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real S
Private Integer W
End Declarations
Askfor W = 3
S = S + REAL(W)
End Askfor
Join
`)
	if got := codeLines(diags); got != "FV101@6" {
		t.Errorf("got %q, want FV101@6\n%s", got, renderAll(diags))
	}
}

func TestFV101PcaseCrossBlock(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
Pcase
Usect
S = 1
Usect
S = 2
End Pcase
Join
`)
	if got := codeLines(diags); got != "FV101@6" {
		t.Errorf("got %q, want FV101@6\n%s", got, renderAll(diags))
	}
}

// --- FV102: replicated force-level stores ------------------------------

func TestFV102VaryingStore(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
S = ME
Join
`)
	if got := codeLines(diags); got != "FV102@4" {
		t.Errorf("got %q, want FV102@4\n%s", got, renderAll(diags))
	}
}

func TestFV102ReadModifyWrite(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
End Declarations
S = S + 1
Join
`)
	if got := codeLines(diags); got != "FV102@4" {
		t.Errorf("got %q, want FV102@4\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "read-modify-write") {
		t.Errorf("message should say read-modify-write: %s", diags[0].Message)
	}
}

func TestFV102UniformInitIsClean(t *testing.T) {
	// Idempotent replicated initialization is the dialect's idiom.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Integer S
Shared Real A(4)
End Declarations
S = 0
A(1) = 0.0
Join
`)
	if len(diags) != 0 {
		t.Errorf("uniform stores are clean:\n%s", renderAll(diags))
	}
}

func TestFV102PerProcessElementIsClean(t *testing.T) {
	// A(ME+1): each process owns its element.
	diags := analyzeSrc(t, `Force T of NP ident ME
Shared Real A(64)
End Declarations
A(ME + 1) = REAL(ME)
Join
`)
	if len(diags) != 0 {
		t.Errorf("per-process element stores are clean:\n%s", renderAll(diags))
	}
}

// --- FV201/FV202: asyncvar protocol ------------------------------------

func TestFV201CopyNeverProduced(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Real V
Private Real X
End Declarations
Copy V into X
Join
`)
	if got := codeLines(diags); got != "FV201@5" {
		t.Errorf("got %q, want FV201@5\n%s", got, renderAll(diags))
	}
	if !strings.Contains(diags[0].Message, "Copy") {
		t.Errorf("message should name the operation: %s", diags[0].Message)
	}
}

func TestFV201ProducedInSubIsClean(t *testing.T) {
	// The Produce lives in a subroutine: whole-program analysis finds it.
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer V
Private Integer I
End Declarations
Call FILL()
Consume V into I
Join
Forcesub FILL()
End Declarations
Barrier
Produce V = 7
End Barrier
Endsub
`)
	if len(diags) != 0 {
		t.Errorf("V is produced in FILL, should be clean:\n%s", renderAll(diags))
	}
}

func TestFV202DoubleProduce(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer V
End Declarations
IF (ME .EQ. 0) THEN
Produce V = 1
Produce V = 2
END IF
Join
`)
	if got := codeLines(diags); got != "FV202@6" {
		t.Errorf("got %q, want FV202@6\n%s", got, renderAll(diags))
	}
}

func TestFV202VoidBetweenIsClean(t *testing.T) {
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer V
Private Integer I
End Declarations
IF (ME .EQ. 0) THEN
Produce V = 1
Consume V into I
Produce V = 2
Void V
END IF
Join
`)
	if len(diags) != 0 {
		t.Errorf("consume between produces, should be clean:\n%s", renderAll(diags))
	}
}

func TestFV202DistinctElements(t *testing.T) {
	// Different canonical subscripts are different cells.
	diags := analyzeSrc(t, `Force T of NP ident ME
Async Integer C(4)
End Declarations
IF (ME .EQ. 0) THEN
Produce C(1) = 1
Produce C(2) = 2
END IF
Join
`)
	if len(diags) != 0 {
		t.Errorf("distinct elements, should be clean:\n%s", renderAll(diags))
	}
}

// --- Explain ------------------------------------------------------------

func TestExplainCoversEveryReportedCode(t *testing.T) {
	for _, code := range []string{"FV001", "FV002", "FV003", "FV101", "FV102", "FV201", "FV202"} {
		text := Explain(code)
		if text == "" {
			t.Errorf("no explanation for %s", code)
			continue
		}
		if !strings.HasPrefix(text, code+":") {
			t.Errorf("%s explanation should lead with its code", code)
		}
	}
	if Explain("fv001") == "" {
		t.Error("codes should match case-insensitively")
	}
	if Explain("FV999") != "" {
		t.Error("unknown codes return empty")
	}
	if len(Codes()) != 7 {
		t.Errorf("Codes() = %v, want 7 entries", Codes())
	}
}

// TestDiagnosticString pins the canonical rendering integration layers
// rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Code: "FV001", Sev: Error, Line: 5, Message: "collective Barrier reachable under non-uniform condition"}
	want := "line 5: FV001 error: collective Barrier reachable under non-uniform condition"
	if d.String() != want {
		t.Errorf("String() = %q, want %q", d.String(), want)
	}
}
