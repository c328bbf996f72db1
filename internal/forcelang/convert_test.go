package forcelang

import (
	"fmt"
	"strings"
	"testing"
)

// show renders an expression as the tree the checker left: every node,
// placed conversions included, with a nested operation parenthesised.
func show(e Expr) string {
	switch t := e.(type) {
	case *IntLit:
		return fmt.Sprint(t.Value)
	case *RealLit:
		return fmt.Sprint(t.Value)
	case *BoolLit:
		return fmt.Sprint(t.Value)
	case *Ref:
		if len(t.Subs) == 0 {
			return t.Name
		}
		subs := make([]string, len(t.Subs))
		for i, s := range t.Subs {
			subs[i] = show(s)
		}
		return t.Name + "(" + strings.Join(subs, ",") + ")"
	case *Un:
		if t.Neg {
			return "-" + operand(t.X)
		}
		return ".NOT." + operand(t.X)
	case *Bin:
		return operand(t.L) + t.Op.String() + operand(t.R)
	case *Intrinsic:
		args := make([]string, len(t.Args))
		for i, a := range t.Args {
			args[i] = show(a)
		}
		return t.Name + "(" + strings.Join(args, ",") + ")"
	}
	return fmt.Sprintf("%T", e)
}

func operand(e Expr) string {
	if _, ok := e.(*Bin); ok {
		return "(" + show(e) + ")"
	}
	return show(e)
}

// TestCheckPlacesConversions pins the one conversion rule: every edge
// where an INTEGER meets a REAL (or the other way round) carries an
// explicit REAL or INT node after checking, typed as the edge wants,
// and the edges where the types already agree carry none.
func TestCheckPlacesConversions(t *testing.T) {
	const decls = "Shared Real R, A(4)\nShared Integer S\nAsync Real Q\nAsync Integer QI\n" +
		"Private Real X\nPrivate Integer I, K\nPrivate Logical L\n"
	for _, tc := range []struct{ edge, stmt, want string }{
		{"assignment to REAL", "X = I + 1", "REAL(I+1)"},
		{"assignment to INTEGER", "K = X * 2.5", "INT(X*2.5)"},
		{"assignment to an element", "A(I) = -I", "REAL(-I)"},
		{"Produce into REAL", "Produce Q = I", "REAL(I)"},
		{"Produce into INTEGER", "Produce QI = X", "INT(X)"},
		{"reduction into INTEGER", "GSUM S = X", "INT(X)"},
		{"reduction into REAL", "GMAX R = I * 2", "REAL(I*2)"},
		{"mixed arithmetic", "X = X * I", "X*REAL(I)"},
		{"mixed arithmetic, literal first", "X = 2 / X", "REAL(2)/X"},
		{"mixed comparison", "L = I .LT. X", "REAL(I).LT.X"},
		{"SQRT", "X = SQRT(I)", "SQRT(REAL(I))"},
		{"NINT", "K = NINT(I)", "NINT(REAL(I))"},
		{"mixed MIN", "X = MIN(I, X, 3)", "MIN(REAL(I),X,REAL(3))"},
		{"mixed MAX", "X = MAX(X, K)", "MAX(X,REAL(K))"},
		{"mixed MOD", "X = MOD(I, 2.5)", "MOD(REAL(I),2.5)"},
		{"nested", "K = ABS(I) + X", "INT(REAL(ABS(I))+X)"},
		// Nothing to convert.
		{"INTEGER arithmetic", "K = I / 2 + MOD(I, 3)", "(I/2)+MOD(I,3)"},
		{"INTEGER MIN", "K = MIN(I, 3)", "MIN(I,3)"},
		{"explicit conversions", "X = REAL(I) + INT(X)", "REAL(I)+REAL(INT(X))"},
		{"REAL of a REAL", "X = REAL(X)", "REAL(X)"},
		{"LOGICAL", "L = L .AND. (I .EQ. K)", "L.AND.(I.EQ.K)"},
	} {
		prog, err := Parse(wrapReduce(decls, tc.stmt+"\n"))
		if err != nil {
			t.Fatalf("%s: %v", tc.edge, err)
		}
		// value returns the statement's value and the type it is stored at.
		value := func() (Expr, Type) {
			switch st := prog.Body[0].(type) {
			case *Assign:
				return st.Expr, st.Target.Type()
			case *ProduceStmt:
				return st.Expr, st.Sym.Type
			case *ReduceStmt:
				return st.Expr, st.Target.Type()
			}
			t.Fatalf("%s: statement %T", tc.edge, prog.Body[0])
			return nil, 0
		}
		e, to := value()
		if got := show(e); got != tc.want {
			t.Errorf("%s: %s checks to %s, want %s", tc.edge, tc.stmt, got, tc.want)
		}
		if e.Type() != to {
			t.Errorf("%s: value typed %s, stored at %s", tc.edge, e.Type(), to)
		}
		if err := Check(prog); err != nil {
			t.Fatalf("%s: re-check: %v", tc.edge, err)
		}
		if e, _ := value(); show(e) != tc.want {
			t.Errorf("%s: a second Check changed %s to %s", tc.edge, tc.want, show(e))
		}
	}
}

// TestConversionsPlacedOnce: a subroutine called from a single-stream
// context is checked again under that context (to reject a collective
// smuggled in through the call), so its body meets the checker twice and
// must still carry one conversion.
func TestConversionsPlacedOnce(t *testing.T) {
	prog := MustParse(`Force ONCE of NP ident ME
End Declarations
Barrier
  Call S
End Barrier
Join
Forcesub S()
Private Real X
Private Integer I
End Declarations
I = 3
X = I
Endsub
`)
	if got := show(prog.Subs[0].Body[1].(*Assign).Expr); got != "REAL(I)" {
		t.Errorf("X = I in a subroutine called from a barrier section checks to %s, want REAL(I)", got)
	}
}
