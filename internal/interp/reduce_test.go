package interp

import (
	"strings"
	"testing"

	"repro/internal/forcelang"
	"repro/internal/machine"
	"repro/internal/reduce"
)

// runReduceSrc interprets src and returns its printed output.
func runReduceSrc(t *testing.T, src string, np int, k reduce.Kind) string {
	t.Helper()
	prog, err := forcelang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Run(prog, Config{NP: np, Stdout: &sb, Reduce: k}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

const gsumProgram = `
Force G of NP ident ME
Shared Integer TOTAL, COUNT
Shared Real BIG, SMALL
Shared Logical ALLPOS, ANYTOP
Private Real X
End Declarations
X = REAL(ME + 1)
GSUM TOTAL = ME + 1
GSUM COUNT = 1
GMAX BIG = X * 2.0
GMIN SMALL = X
GAND ALLPOS = X .GT. 0.0
GOR ANYTOP = ME .EQ. NP - 1
Barrier
  Print 'total', TOTAL
  Print 'count', COUNT
  Print 'big', BIG
  Print 'small', SMALL
  Print 'allpos', ALLPOS
  Print 'anytop', ANYTOP
End Barrier
Join
`

func TestInterpReduceAllStrategies(t *testing.T) {
	for _, k := range reduce.Kinds() {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			out := runReduceSrc(t, gsumProgram, 6, k)
			for _, want := range []string{
				"total 21", "count 6", "big 12.0", "small 1.0", "allpos T", "anytop T",
			} {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
		})
	}
}

func TestInterpReduceInConvergenceLoop(t *testing.T) {
	// The heat-solver shape: a reduction per sweep driving a shared
	// convergence flag, on a non-native machine profile.
	src := `
Force C of NP ident ME
Shared Real ERR
Shared Integer ROUNDS
Shared Logical DONE
Private Real MINE
Private Integer K
End Declarations
Barrier
  DONE = .FALSE.
  ROUNDS = 0
End Barrier
K = 0
DO WHILE (.NOT. DONE)
  K = K + 1
  MINE = 10.0 / REAL(K * K)
  GMAX ERR = MINE
  Barrier
    ROUNDS = ROUNDS + 1
    IF (ERR .LT. 0.2) THEN
      DONE = .TRUE.
    End IF
  End Barrier
End DO
Barrier
  Print 'rounds', ROUNDS
  Print 'err', ERR
End Barrier
Join
`
	prog := forcelang.MustParse(src)
	var sb strings.Builder
	if err := Run(prog, Config{NP: 5, Machine: machine.Encore, Stdout: &sb, Reduce: reduce.Critical}); err != nil {
		t.Fatal(err)
	}
	// 10/k^2 < 0.2 first at k=8: 10/64 = 0.15625.
	if !strings.Contains(sb.String(), "rounds 8") {
		t.Errorf("unexpected convergence trace:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "err 0.15625") {
		t.Errorf("unexpected final error:\n%s", sb.String())
	}
}

func TestInterpReduceMixedTypesCoerce(t *testing.T) {
	// An INTEGER operand landing in a REAL target reduces in INTEGER and
	// coerces at the assignment, exactly like Assign.
	src := `
Force M of NP ident ME
Shared Real T
End Declarations
GSUM T = ME
Barrier
  Print 'sum', T
End Barrier
Join
`
	out := runReduceSrc(t, src, 4, reduce.PrivateSlots)
	if !strings.Contains(out, "sum 6.0") {
		t.Errorf("output:\n%s", out)
	}
}
