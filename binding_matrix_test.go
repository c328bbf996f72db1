// TestBindingMatrix pins what every kind of name is bound to, on every
// tier.  The checker resolves each name once and records the verdict on
// the tree (forcelang.Symbol); the tree walker, the closure compiler (per
// iteration and in chunk mode) and the Go emitter each bind storage from
// it.  One row per (main program | subroutine) x kind of name — private
// scalar, private array, shared scalar, shared array, async variable,
// by-reference scalar and array parameter, NP, the ident variable, an
// inherited shared name, a unit-local shared name, a sub-local shadowing
// a shared name — runs through tree x compiled x chunked x aot at
// np in {1, 2}; the outputs must be byte-identical.  Every row prints in
// a deterministic order (from barrier sections, or from one process
// between collectives), so no sorting hides a misbinding.
package repro_test

import (
	"testing"

	"repro/internal/forcelang"
	"repro/internal/interp"
)

// inSub wraps subroutine text in a main program that just calls it.
func inSub(decls, body string) string {
	return "Force BIND of NP ident ME\nEnd Declarations\nCall S()\nJoin\nForcesub S()\n" +
		decls + "End Declarations\n" + body + "Endsub\n"
}

// inMain is the same text as a main program.
func inMain(decls, body string) string {
	return "Force BIND of NP ident ME\n" + decls + "End Declarations\n" + body + "Join\n"
}

// bindingUnits are the kinds of name either unit can declare, as
// (declarations, body) pairs instantiated once in the main program and
// once in a subroutine — where "shared" then means unit-local shared
// storage, owned by the subroutine.
var bindingUnits = []struct{ name, decls, body string }{
	{"private", "Private Integer K, T\n", `K = ME + 10
GSUM T = K
Barrier
Print 'private', T
End Barrier
`},
	{"private-array", "Private Real W(4), T\nPrivate Integer I\n", `DO I = 1, 4
  W(I) = I * 0.5 + ME
End DO
GSUM T = W(1) + W(4)
Barrier
Print 'private array', T
End Barrier
`},
	{"shared", "Shared Integer S\nShared Logical L\n", `Barrier
S = 3
L = S .GT. 2
End Barrier
S = S + 1
Barrier
Print 'shared', S, L
End Barrier
`},
	{"shared-array", "Shared Real A(8), M(2, 3)\nPrivate Integer I, J\n", `Presched DO I = 1, 8
  A(I) = I * 1.5
End Presched DO
Selfsched DO I = 1, 2 also J = 1, 3
  M(I, J) = A(I) + J
End Selfsched DO
Barrier
Print 'shared array', A(1), A(8), M(1, 1), M(2, 3)
End Barrier
`},
	{"async", "Async Real Q\nAsync Integer R(4)\nPrivate Real X\nPrivate Integer K, T\n", `IF (ME .EQ. 0) THEN
  Produce Q = 2.5
End IF
IF (ME .EQ. NP - 1) THEN
  Consume Q into X
  Print 'async', X
End IF
Produce R(ME + 1) = ME + 1
Copy R(ME + 1) into K
GSUM T = K
Barrier
Print 'async array', T
End Barrier
`},
	{"np", "Shared Integer C\nPrivate Integer I\n", `Barrier
C = 0
End Barrier
Selfsched DO I = 1, NP * 3
  C = C + 1
End Selfsched DO
Barrier
Print 'np', NP, C
End Barrier
`},
	{"ident", "Shared Integer OWNER(8)\nPrivate Integer I, T\n", `Presched DO I = 1, 8
  OWNER(I) = ME
End Presched DO
GSUM T = ME + 1
Barrier
Print 'ident', T, OWNER(1), OWNER(2), OWNER(8)
End Barrier
`},
}

// bindingSubOnly are the kinds only a subroutine has.
var bindingSubOnly = []struct{ name, src string }{
	{"sub/param-scalar", `Force BIND of NP ident ME
Shared Integer G
Shared Real A(4)
Private Integer P, T
End Declarations
Barrier
G = 1
A(2) = 0.5
Call BUMP(G)
Call BUMPR(A(2))
End Barrier
P = ME
Call BUMP(P)
GSUM T = P
Barrier
Print 'param scalar', T, G, A(2)
End Barrier
Join
Forcesub BUMP(K)
Shared Integer K
End Declarations
Call INC(K)
Endsub
Forcesub INC(N)
Private Integer N
End Declarations
N = N + 1
Endsub
Forcesub BUMPR(X)
Private Real X
End Declarations
X = X + 1
Endsub
`},
	{"sub/param-array", `Force BIND of NP ident ME
Shared Real A(4)
Private Real W(4), T
Private Integer TWO, MINE
End Declarations
TWO = 2
MINE = ME + 1
Barrier
Call FILL(A, TWO)
End Barrier
Call FILL(W, MINE)
GSUM T = W(3)
Barrier
Print 'param array', A(1), A(4), T
End Barrier
Join
Forcesub FILL(V, SCALE)
Shared Real V(4)
Private Integer SCALE, I
End Declarations
DO I = 1, 4
  V(I) = I * SCALE
End DO
Endsub
`},
	{"sub/inherited-shared", `Force BIND of NP ident ME
Shared Integer G
Shared Real A(4)
End Declarations
Barrier
G = 4
End Barrier
Call S()
Join
Forcesub S()
Private Integer I
End Declarations
Presched DO I = 1, 4
  A(I) = G * I
End Presched DO
Barrier
G = G + 1
Print 'inherited', G, A(4)
End Barrier
Endsub
`},
	{"sub/local-shadows-shared", `Force BIND of NP ident ME
Shared Integer N
Shared Real A(4)
End Declarations
Barrier
N = 5
A(1) = 9
End Barrier
Call S()
Barrier
Print 'main sees', N, A(1)
End Barrier
Join
Forcesub S()
Private Real N
Shared Integer A
End Declarations
N = 1.5
Barrier
A = 7
End Barrier
IF (ME .EQ. 0) THEN
  Print 'sub sees', N, A
End IF
Endsub
`},
}

func TestBindingMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("builds native binaries with the go toolchain")
	}
	rows := append([]struct{ name, src string }{}, bindingSubOnly...)
	for _, u := range bindingUnits {
		rows = append(rows,
			struct{ name, src string }{"main/" + u.name, inMain(u.decls, u.body)},
			struct{ name, src string }{"sub/" + u.name, inSub(u.decls, u.body)})
	}
	for _, row := range rows {
		row := row
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			prog, err := forcelang.Parse(row.src)
			if err != nil {
				t.Fatalf("parse: %v\n%s", err, row.src)
			}
			for _, np := range []int{1, 2} {
				want, err := interpRun(t, prog, np, interp.ExecTree)
				if err != nil || want == "" {
					t.Fatalf("np=%d tree: output %q, err %v", np, want, err)
				}
				for _, mode := range []interp.ExecMode{interp.ExecCompiled, interp.ExecChunked} {
					if got, err := interpRun(t, prog, np, mode); err != nil || got != want {
						t.Errorf("np=%d %s: output %q, err %v; tree printed %q", np, mode, got, err, want)
					}
				}
				if got, err := aotRun(t, prog, np); err != nil || got != want {
					t.Errorf("np=%d aot: output %q, err %v; tree printed %q", np, got, err, want)
				}
			}
		})
	}
}
