package interp

// exprmatrix_test.go — the expression-matrix differential: one table of
// statement rows (every binary operator over INTEGER, REAL and mixed
// operands, unary minus, every intrinsic, 1-D and 2-D subscripts on
// private, shared and parameter arrays, coercing assignments to every
// declared type and storage class, and the runtime-error rows)
// instantiated in three contexts — a chunk-eligible DOALL body, the same
// body made ineligible by a Critical, and a plain sequential DO — and
// compared tree vs compiled vs chunked at np ∈ {1, 2}, error messages
// included.  The tree walker is the oracle: the compiled engines must
// print what it prints and fail with the message it fails with.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/forcelang"
)

// emRow is one row of the matrix: the loop body (I runs over hdr, 1..8
// by default; J over inner when set), and for a runtime-error row the
// text every engine's error must contain.
type emRow struct {
	name  string
	body  string
	hdr   string // loop header, default "I = 1, 8"
	inner string // second index header ("J = 1, 4"), default none
	err   string
	// viaParam marks bodies that assign through a parameter, which the
	// classifier keeps off the chunk tier even without a Critical.
	viaParam bool
}

const emHead = `Force EM of NP ident ME
Shared Integer SI(8), SM(3, 4), RI(8), RJ(8), RK(8), SC, SD, AC, CNT
Shared Real SR(8), RR(8), RS(8), RT(8), SH, SG
Shared Logical SL(8), RL(8), RM(8), RN(8), ST, SF
Private Integer PI(8)
Private Real PR(8)
End Declarations
Call KERN(SI, SM, SR, PI, PR, SC, SH)
Join
Forcesub KERN(QI, QM, QR, QP, QQ, QC, QH)
Shared Integer QI(8), QM(3, 4), QC
Shared Real QR(8), QH
Private Integer QP(8)
Private Real QQ(8)
Private Integer I, J, K, X, Y, LI(8), LM(3, 4)
Private Real U, LR(8)
Private Logical B
End Declarations
DO K = 1, 8
  SI(K) = K * 3 - 10
  SR(K) = REAL(K) * 0.75 - 2.5
  SL(K) = MOD(K, 3) .EQ. 0
  LI(K) = K - 4
  LR(K) = 1.25 * REAL(K) - 4.0
  QP(K) = 5 - K
  QQ(K) = REAL(K) / 4.0
End DO
DO K = 1, 3
  DO J = 1, 4
    SM(K, J) = K * 10 + J
    LM(K, J) = K - J
  End DO
End DO
SC = 3
SD = -2
SH = 0.5
SG = -1.75
ST = .TRUE.
SF = .FALSE.
Barrier
End Barrier
`

const emTail = `Barrier
  DO K = 1, 8
    Print K, SI(K), SR(K), SL(K), RI(K), RJ(K), RK(K), RR(K), RS(K), RT(K), RL(K), RM(K), RN(K)
  End DO
  DO K = 1, 3
    Print SM(K, 1), SM(K, 2), SM(K, 3), SM(K, 4)
  End DO
  Print SC, SD, AC, SH, SG, ST, SF, CNT
End Barrier
Endsub
`

// emContexts are the three places a row's body is instantiated.
var emContexts = []string{"chunk", "critical", "sequential"}

// emProgram instantiates one row in one context.
func emProgram(r emRow, ctx string) string {
	hdr := r.hdr
	if hdr == "" {
		hdr = "I = 1, 8"
	}
	var sb strings.Builder
	sb.WriteString(emHead)
	switch ctx {
	case "sequential":
		fmt.Fprintf(&sb, "DO %s\n", hdr)
		if r.inner != "" {
			fmt.Fprintf(&sb, "DO %s\n", r.inner)
		}
		sb.WriteString(r.body)
		if r.inner != "" {
			sb.WriteString("End DO\n")
		}
		sb.WriteString("End DO\n")
	default:
		if r.inner != "" {
			hdr += " also " + r.inner
		}
		fmt.Fprintf(&sb, "Presched DO %s\n", hdr)
		sb.WriteString(r.body)
		if ctx == "critical" {
			sb.WriteString("Critical L\nCNT = CNT + 1\nEnd Critical\n")
		}
		sb.WriteString("End Presched DO\n")
	}
	sb.WriteString(emTail)
	return sb.String()
}

// emRows builds the table.  In the sequential context every process runs
// the whole loop, so a body must never read a shared location it (or an
// alias of it) also writes: all processes then store identical values
// and the outcome is deterministic.
func emRows() []emRow {
	var rows []emRow
	add := func(name, body string) { rows = append(rows, emRow{name: name, body: body}) }

	// Arithmetic: varying∘varying, uniform∘uniform, varying∘uniform per
	// operand-type combination.  Integer divisors never reach zero here
	// (SI holds no zero, SD is -2); the REAL rows include x/0 and 0/0.
	for _, op := range []struct{ sym, name string }{{"+", "add"}, {"-", "sub"}, {"*", "mul"}, {"/", "div"}} {
		o := op.sym
		add("int-"+op.name, fmt.Sprintf("RI(I) = (I - 4) %s SI(I)\nRJ(I) = SC %s SD\nRK(I) = (I * 2 - 9) %s SD\n", o, o, o))
		add("real-"+op.name, fmt.Sprintf("RR(I) = SR(I) %s (REAL(I) * 0.5 - 2.25)\nRS(I) = SH %s SG\nRT(I) = SR(I) %s SH\n", o, o, o))
		add("mixed-"+op.name, fmt.Sprintf("RR(I) = SI(I) %s SR(I)\nRS(I) = SR(I) %s I\nRT(I) = SC %s SH\n", o, o, o))
	}
	add("real-div-zero-is-ieee", "RR(I) = SR(I) / REAL(I - 4)\nRS(I) = REAL(I - 4) / REAL(I - 4)\nRT(I) = SH / (SG + 1.75)\n")

	// Comparisons: each operand pair meets in equality at I = 4; the REAL
	// row also compares a NaN.
	for _, op := range []string{"EQ", "NE", "LT", "LE", "GT", "GE"} {
		o := "." + op + "."
		add("int-"+op, fmt.Sprintf("RL(I) = SI(I) %s (2 * I - 6)\nRM(I) = SC %s SD\nRN(I) = I %s SC\n", o, o, o))
		add("real-"+op, fmt.Sprintf("RL(I) = SR(I) %s (REAL(I) * 0.25 - 0.5)\nRM(I) = SH %s SG\nRN(I) = (REAL(I - 4) / REAL(I - 4)) %s SH\n", o, o, o))
		add("mixed-"+op, fmt.Sprintf("RL(I) = (I - 4) %s (SR(I) - 0.5)\nRM(I) = SC %s SH\nRN(I) = SR(I) %s SD\n", o, o, o))
	}

	// Logical operators, including the short circuits that shield a
	// division by zero.
	add("logical-and-or-not", "RL(I) = SL(I) .AND. (I .GT. 3)\nRM(I) = ST .OR. SF\nRN(I) = .NOT. SL(I)\n")
	add("logical-uniform", "RL(I) = ST .AND. SF\nRM(I) = .NOT. ST\nRN(I) = SF .OR. (SC .GT. SD)\n")
	add("logical-eq-ne", "RL(I) = SL(I) .EQ. (MOD(I, 2) .EQ. 0)\nRM(I) = SL(I) .NE. ST\nRN(I) = ST .EQ. SF\n")
	add("short-circuit", "RL(I) = (I .EQ. 4) .OR. (8 / (I - 4) .GT. 0)\nRM(I) = (I .NE. 4) .AND. (8 / (I - 4) .GT. 0)\n")

	add("unary-minus", "RI(I) = -SI(I)\nRJ(I) = -SC\nRK(I) = -(I - 4)\nRR(I) = -SR(I)\nRS(I) = -SH\nRT(I) = -(I - 4)\n")

	// Intrinsics.
	add("abs", "RI(I) = ABS(SI(I))\nRJ(I) = ABS(SD)\nRR(I) = ABS(SR(I))\nRS(I) = ABS(SG)\n")
	add("sqrt", "RR(I) = SQRT(REAL(I) - 1.0)\nRS(I) = SQRT(SH)\nRT(I) = SQRT(I)\n")
	add("int-nint", "RI(I) = INT(SR(I))\nRJ(I) = INT(SI(I))\nRK(I) = NINT(REAL(I) * 0.5 - 2.0)\nRR(I) = NINT(SG)\nRS(I) = INT(SG)\n")
	// Beyond 2^31, so a 32-bit int anywhere on the way wraps; element-wise,
	// so the chunk context runs it in block form.
	add("int-nint-wide", "RI(I) = NINT(SR(I) * 3000000000.0)\nRJ(I) = INT(SR(I) * 3000000000.0)\nRK(I) = SR(I) * 3000000000.0\n")
	add("real", "RR(I) = REAL(SI(I))\nRS(I) = REAL(SR(I))\nRT(I) = REAL(SC) / 2\n")
	add("mod-int", "RI(I) = MOD(SI(I), 3)\nRJ(I) = MOD(I - 4, -3)\nRK(I) = MOD(SC, SD)\n")
	add("mod-real", "RR(I) = MOD(SR(I), 0.75)\nRS(I) = MOD(SI(I), 2.5)\nRT(I) = MOD(SR(I), REAL(I - 4))\n")
	add("min-max-int", "RI(I) = MIN(SI(I), I)\nRJ(I) = MAX(SI(I), I, 9 - I)\nRK(I) = MIN(SC, SD, 1)\n")
	add("min-max-real", "RR(I) = MIN(SR(I), LR(I))\nRS(I) = MAX(I, SR(I), 1)\nRT(I) = MAX(SH, SG, SC)\n")

	// Subscripts: 1-D and 2-D, loads and stores, private / shared / param.
	add("subs-1d-load", "RI(I) = SI(9 - I) + LI(I)\nRJ(I) = QI(I) - QP(9 - I)\nRR(I) = SR(I) + LR(9 - I)\nRS(I) = QR(9 - I) * QQ(I)\n")
	add("subs-2d-load", "RI(I) = SM(MOD(I, 3) + 1, MOD(I, 4) + 1)\nRJ(I) = LM(MOD(I, 3) + 1, MOD(I, 4) + 1)\nRK(I) = QM(MOD(I, 3) + 1, MOD(I, 4) + 1)\n")
	add("subs-uniform", "RI(I) = SI(SC) + LI(SC + 1)\nRJ(I) = SM(SC, SC + 1)\nRR(I) = SR(SC * 2)\n")
	add("subs-store-shared", "SM(MOD(I, 3) + 1, MOD(I, 4) + 1) = I\nSI(9 - I) = I * I\n")
	add("subs-store-private", "LI(9 - I) = I * I\nRI(I) = LI(9 - I)\nLM(MOD(I, 3) + 1, MOD(I, 4) + 1) = I\nRJ(I) = LM(MOD(I, 3) + 1, MOD(I, 4) + 1)\n")
	rows = append(rows, emRow{name: "subs-store-param", viaParam: true,
		body: "QI(9 - I) = I * I\nQM(MOD(I, 3) + 1, MOD(I, 4) + 1) = I\nQP(I) = I + 1\nRI(I) = QP(I)\nQR(I) = I\n"})
	add("param-scalars", "RI(I) = QC + I\nRR(I) = QH * REAL(I)\n")

	// Coercing assignments to every declared type and storage class.
	add("coerce-shared-array", "RI(I) = SR(I) * 2.5\nRR(I) = SI(I) * 2\nRL(I) = SL(I)\n")
	add("coerce-shared-scalar", "IF (I .EQ. 5) THEN\nSD = SR(I) * 3.0\nSG = SI(I)\nST = SL(I)\nEnd IF\n")
	add("coerce-private-scalar", "X = SR(I) * 2.5\nRI(I) = X\nU = SI(I)\nRR(I) = U / 2\nB = SL(I)\nRL(I) = B\n")
	add("coerce-private-array", "LI(I) = SR(I) * 2.5\nRI(I) = LI(I)\nLR(I) = SI(I)\nRR(I) = LR(I) / 2\n")
	rows = append(rows, emRow{name: "coerce-param", viaParam: true,
		body: "QI(I) = LR(I) * 2.5\nQR(I) = I\nQP(I) = LR(I) * 2.5\nRI(I) = QP(I)\nQQ(I) = I\nRR(I) = QQ(I) / 2\nIF (I .EQ. 5) THEN\nQC = LR(I) * 3.0\nQH = I\nEnd IF\n"})

	// Control flow inside the body, loop headers, the second index.
	add("if-else", "IF (SL(I)) THEN\nRI(I) = 1\nELSE\nRI(I) = 2\nEnd IF\nIF (SC .GT. SD) THEN\nRJ(I) = I\nEnd IF\n")
	add("seq-do", "X = 0\nDO J = SC, 1, -1\nX = X + J * I\nEnd DO\nRI(I) = X\nY = 0\nDO J = 1, I, 2\nY = Y + 1\nEnd DO\nRJ(I) = Y\n")
	rows = append(rows, emRow{name: "negative-step", hdr: "I = 8, 1, -1", body: "RI(I) = I * SC\n"})
	rows = append(rows, emRow{name: "stride", hdr: "I = 2, 8, 3", body: "RI(I) = I * SC\n"})
	rows = append(rows, emRow{name: "uniform-header", hdr: "I = SC - 2, SC + 5, SC - 2", body: "RI(I) = I - SD\n"})
	rows = append(rows, emRow{name: "two-index", hdr: "I = 1, 2", inner: "J = 1, 4",
		body: "SM(I, J) = I * 100 + J\nRI((I - 1) * 4 + J) = I - J\nRR((I - 1) * 4 + J) = REAL(I) / J\n"})

	// Shared accumulates: the same statement is a folded accumulator in
	// the chunk context and an atomic update everywhere else.
	add("accum-sum", "SD = SD + I\nAC = AC - SI(I)\n")
	add("accum-minmax", "SD = MAX(SD, SI(I))\nAC = MIN(AC, SI(I))\nSG = MIN(SG, SR(I))\nSH = MAX(SH, I)\n")

	// Runtime errors.  Each body fails in exactly one iteration, so the
	// message is the same whichever process reports first.
	bad := func(name, body, msg string) { rows = append(rows, emRow{name: name, body: body, err: msg}) }
	bad("err-div-zero", "RI(I) = 100 / (I - 5)\n", "integer division by zero")
	bad("err-div-zero-uniform", "RI(I) = I / (SC - 3)\n", "integer division by zero")
	bad("err-mod-zero", "RI(I) = MOD(I, I - 5)\n", "MOD by zero")
	bad("err-mod-zero-uniform", "RI(I) = MOD(I, SC - 3)\n", "MOD by zero")
	bad("err-sqrt-negative", "RR(I) = SQRT(REAL(7 - I))\n", "SQRT of negative value -1")
	bad("err-sub-shared-load", "RI(I) = SI(I + 8 * (I / 8))\n", "subscript 1 of SI out of range: 16 not in [1,8]")
	bad("err-sub-shared-low", "RI(I) = SI(I - 8 * (I / 8))\n", "subscript 1 of SI out of range: 0 not in [1,8]")
	bad("err-sub-shared-store", "SI(I + 8 * (I / 8)) = 1\n", "subscript 1 of SI out of range: 16 not in [1,8]")
	bad("err-sub-private-load", "RI(I) = LI(I + 8 * (I / 8))\n", "subscript 1 of LI out of range: 16 not in [1,8]")
	bad("err-sub-private-store", "LI(I + 8 * (I / 8)) = 1\n", "subscript 1 of LI out of range: 16 not in [1,8]")
	bad("err-sub-param-load", "RI(I) = QI(I + 8 * (I / 8))\n", "subscript 1 of QI out of range: 16 not in [1,8]")
	bad("err-sub-2d-first", "RI(I) = SM(I / 8 * 4 + 1, 1)\n", "subscript 1 of SM out of range: 5 not in [1,3]")
	bad("err-sub-2d-second", "RI(I) = LM(1, I / 8 * 5 + 1)\n", "subscript 2 of LM out of range: 6 not in [1,4]")
	bad("err-sub-2d-store", "SM(1, I / 8 * 5 + 1) = I\n", "subscript 2 of SM out of range: 6 not in [1,4]")
	bad("err-sub-2d-param", "RI(I) = QM(I / 8 * 4 + 1, 1)\n", "subscript 1 of QM out of range: 5 not in [1,3]")
	rows = append(rows, emRow{name: "err-sub-param-store", viaParam: true,
		body: "QI(I + 8 * (I / 8)) = 1\n", err: "subscript 1 of QI out of range: 16 not in [1,8]"})
	bad("err-zero-step-inner", "DO J = 1, 3, 8 - I\nRI(I) = J\nEnd DO\n", "loop step is zero")
	rows = append(rows, emRow{name: "err-zero-step", hdr: "I = 1, 8, SC - 3", body: "RI(I) = I\n", err: "loop step is zero"})
	rows = append(rows, emRow{name: "err-zero-step-second-index", hdr: "I = 1, 2", inner: "J = 1, 4, SC - 3",
		body: "RI(I) = J\n", err: "loop step is zero"})
	return rows
}

// TestExpressionMatrix is the differential itself.
func TestExpressionMatrix(t *testing.T) {
	for _, r := range emRows() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			for _, ctx := range emContexts {
				src := emProgram(r, ctx)
				prog, err := forcelang.Parse(src)
				if err != nil {
					t.Fatalf("%s: parse: %v\n%s", ctx, err, src)
				}
				emCheckTier(t, r, ctx, prog)
				for _, np := range []int{1, 2} {
					var treeOut, treeErr string
					for _, mode := range ExecModes() {
						var sb strings.Builder
						msg := ""
						if err := Run(prog, Config{NP: np, Stdout: &sb, Exec: mode}); err != nil {
							msg = err.Error()
						}
						if (msg != "") != (r.err != "") || !strings.Contains(msg, r.err) {
							t.Errorf("%s np=%d %s: error %q, want one containing %q", ctx, np, mode, msg, r.err)
						}
						out := strings.Join(sortedLines(sb.String()), "\n")
						if r.err != "" {
							out = "" // an aborted run's partial output is unspecified
						}
						if mode == ExecTree {
							treeOut, treeErr = out, msg
							continue
						}
						if msg != treeErr {
							t.Errorf("%s np=%d: tree fails with %q, %s with %q", ctx, np, treeErr, mode, msg)
						}
						if out != treeOut {
							t.Errorf("%s np=%d: %s output differs from the tree walker's\ntree:\n%s\n%s:\n%s",
								ctx, np, mode, treeOut, mode, out)
						}
					}
				}
			}
		})
	}
}

// emCheckTier asserts, through the FuseLog narration, that the contexts
// exercise the paths they are named for: the chunk context's DOALL is
// chunk-compiled (unless the row assigns through a parameter), the
// critical context's is not.
func emCheckTier(t *testing.T, r emRow, ctx string, prog *forcelang.Program) {
	t.Helper()
	if ctx == "sequential" {
		return
	}
	// Decisions are narrated at compile time, before any process runs;
	// an error row's run error is the other test's business.
	var logs []string
	_ = Run(prog, Config{NP: 1, FuseLog: func(m string) { logs = append(logs, m) }})
	declined := logsContain(logs, "not chunk-compiled")
	if want := ctx == "critical" || r.viaParam; declined != want {
		t.Errorf("%s: chunk tier declined = %v, want %v (logs %q)", ctx, declined, want, logs)
	}
}
