package uniform

import (
	"testing"

	"repro/internal/forcelang"
)

func intLit(v int64) *forcelang.IntLit { return &forcelang.IntLit{Value: v} }
func ref(name string, subs ...forcelang.Expr) *forcelang.Ref {
	return &forcelang.Ref{Name: name, Subs: subs}
}
func bin(op forcelang.BinOp, l, r forcelang.Expr) *forcelang.Bin {
	return &forcelang.Bin{Op: op, L: l, R: r}
}

func TestLevelJoin(t *testing.T) {
	if Uniform.Join(Uniform) != Uniform {
		t.Error("uniform join uniform should be uniform")
	}
	for _, pair := range [][2]Level{{Uniform, Varying}, {Varying, Uniform}, {Varying, Varying}} {
		if pair[0].Join(pair[1]) != Varying {
			t.Errorf("%v join %v should be varying", pair[0], pair[1])
		}
	}
	if Uniform.String() != "uniform" || Varying.String() != "varying" {
		t.Error("level strings wrong")
	}
}

func TestWalkVisitsSubscripts(t *testing.T) {
	// A(I+1) * MOD(J, 2) - (-K)
	e := bin(forcelang.OpSub,
		bin(forcelang.OpMul,
			ref("A", bin(forcelang.OpAdd, ref("I"), intLit(1))),
			&forcelang.Intrinsic{Name: "MOD", Args: []forcelang.Expr{ref("J"), intLit(2)}}),
		&forcelang.Un{Neg: true, X: ref("K")})
	var names []string
	Walk(e, func(r *forcelang.Ref) { names = append(names, r.Name) })
	want := map[string]bool{"A": true, "I": true, "J": true, "K": true}
	if len(names) != 4 {
		t.Fatalf("visited %v, want 4 refs", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected ref %s", n)
		}
	}
}

func TestAccumDelta(t *testing.T) {
	// S = S + E
	if d, neg, ok := AccumDelta("S", bin(forcelang.OpAdd, ref("S"), ref("E"))); !ok || neg || d.(*forcelang.Ref).Name != "E" {
		t.Error("S = S + E should match with positive delta E")
	}
	// S = E + S
	if _, neg, ok := AccumDelta("S", bin(forcelang.OpAdd, ref("E"), ref("S"))); !ok || neg {
		t.Error("S = E + S should match with positive delta")
	}
	// S = S - E
	if _, neg, ok := AccumDelta("S", bin(forcelang.OpSub, ref("S"), ref("E"))); !ok || !neg {
		t.Error("S = S - E should match with negated delta")
	}
	// S = E - S is not an accumulator
	if _, _, ok := AccumDelta("S", bin(forcelang.OpSub, ref("E"), ref("S"))); ok {
		t.Error("S = E - S should not match")
	}
	// S(1) = S(1) + E: subscripted self is not the scalar shape
	if _, _, ok := AccumDelta("S", bin(forcelang.OpAdd, ref("S", intLit(1)), ref("E"))); ok {
		t.Error("subscripted target should not match")
	}
}

func TestRefersTo(t *testing.T) {
	e := bin(forcelang.OpAdd, ref("A", ref("S")), intLit(1))
	if !RefersTo(e, "S") {
		t.Error("S read inside a subscript should be found")
	}
	if RefersTo(e, "A") {
		t.Error("A is an array access, not a scalar read")
	}
}

func TestConstInt(t *testing.T) {
	// 2*3 - (-4) = 10
	e := bin(forcelang.OpSub, bin(forcelang.OpMul, intLit(2), intLit(3)), &forcelang.Un{Neg: true, X: intLit(4)})
	if v, ok := ConstInt(e); !ok || v != 10 {
		t.Errorf("got %d,%v want 10,true", v, ok)
	}
	if _, ok := ConstInt(ref("I")); ok {
		t.Error("a variable is not constant")
	}
	if _, ok := ConstInt(bin(forcelang.OpDiv, intLit(4), intLit(2))); ok {
		t.Error("division is not folded (faults are runtime semantics)")
	}
}

func TestCanonPositionIndependent(t *testing.T) {
	a := bin(forcelang.OpAdd, ref("I"), intLit(1))
	b := forcelang.MustParse("Force P of NP ident ME\nPrivate Integer I, K\nEnd Declarations\n\n\nK = I + 1\nJoin\n").
		Body[0].(*forcelang.Assign).Expr
	if b.Pos() == a.Pos() {
		t.Fatal("want the two forms on different lines")
	}
	if Canon(a) != Canon(b) {
		t.Error("identical forms at different lines must share a key")
	}
	if Canon(a) == Canon(bin(forcelang.OpAdd, ref("I"), intLit(2))) {
		t.Error("distinct forms must not collide")
	}
}

func intScalars(names ...string) func(*forcelang.Ref) bool {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return func(r *forcelang.Ref) bool { return set[r.Name] }
}

func TestCoef(t *testing.T) {
	sp := &Space{Outer: "I", Inner: "J", IntScalar: intScalars("N")}
	// 2*I - 3*J + N + 1
	e := bin(forcelang.OpAdd,
		bin(forcelang.OpSub,
			bin(forcelang.OpMul, intLit(2), ref("I")),
			bin(forcelang.OpMul, intLit(3), ref("J"))),
		bin(forcelang.OpAdd, ref("N"), intLit(1)))
	ci, cj, ok := sp.Coef(e)
	if !ok || ci != 2 || cj != -3 {
		t.Errorf("got (%d,%d,%v) want (2,-3,true)", ci, cj, ok)
	}
	// A remainder reading a non-admitted scalar fails.
	if _, _, ok := sp.Coef(bin(forcelang.OpAdd, ref("I"), ref("X"))); ok {
		t.Error("remainder with unknown scalar should not decompose")
	}
	// I*J is not affine.
	if _, _, ok := sp.Coef(bin(forcelang.OpMul, ref("I"), ref("J"))); ok {
		t.Error("index product should not decompose")
	}
	// Subscripts are computed in wrapping int64 arithmetic: a coefficient
	// is answered for only within ±2³¹, whichever way it is put together.
	mul := func(k int64, x forcelang.Expr) forcelang.Expr { return bin(forcelang.OpMul, intLit(k), x) }
	for _, tc := range []struct {
		name string
		e    forcelang.Expr
		ci   int64
		ok   bool
	}{
		{"at the bound", mul(1<<31, ref("I")), 1 << 31, true},
		{"at the negative bound", mul(-(1 << 31), ref("I")), -(1 << 31), true},
		{"past the bound", mul(1<<31+1, ref("I")), 0, false},
		{"2^62 (wraps to 0 at I = 4)", mul(1<<62, ref("I")), 0, false},
		{"a product of small factors", mul(1<<16, mul(1<<16, ref("I"))), 0, false},
		{"a sum past the bound", bin(forcelang.OpAdd, mul(1<<31, ref("I")), ref("I")), 0, false},
		{"a big literal in the rest (conservatively)", bin(forcelang.OpAdd, ref("I"), mul(1<<40, ref("N"))), 0, false},
	} {
		if ci, _, ok := sp.Coef(tc.e); ok != tc.ok || (ok && ci != tc.ci) {
			t.Errorf("%s: got (%d, %v), want (%d, %v)", tc.name, ci, ok, tc.ci, tc.ok)
		}
	}
}

func TestDisjoint(t *testing.T) {
	one := &Space{Outer: "I", IntScalar: intScalars("N")}
	// A(I+1) everywhere: injective.
	form := func() *forcelang.Ref { return ref("A", bin(forcelang.OpAdd, ref("I"), intLit(1))) }
	if !one.Disjoint([]*forcelang.Ref{form(), form()}) {
		t.Error("A(I+1) is injective in I")
	}
	// A(N): no index coefficient — every iteration hits one element.
	if one.Disjoint([]*forcelang.Ref{ref("A", ref("N"))}) {
		t.Error("A(N) is not disjoint across iterations")
	}
	// Mixed forms A(I) and A(I+1) collide across iterations.
	if one.Disjoint([]*forcelang.Ref{ref("A", ref("I")), form()}) {
		t.Error("mixed forms must stay non-disjoint")
	}
	// A(2^62*I + 1): nonzero coefficient, but 2^62 * 4 wraps to 0.
	wrap := ref("A", bin(forcelang.OpAdd, bin(forcelang.OpMul, intLit(1<<62), ref("I")), intLit(1)))
	if one.Disjoint([]*forcelang.Ref{wrap}) {
		t.Error("A(4611686018427387904*I + 1) is A(1) at I = 0 and at I = 4")
	}
	two := &Space{Outer: "I", Inner: "J"}
	// B(I, J): identity map, injective.
	if !two.Disjoint([]*forcelang.Ref{ref("B", ref("I"), ref("J"))}) {
		t.Error("B(I,J) is injective in (I,J)")
	}
	// B(I+J, I+J): singular — (0,1) and (1,0) collide.
	sum := func() forcelang.Expr { return bin(forcelang.OpAdd, ref("I"), ref("J")) }
	if two.Disjoint([]*forcelang.Ref{ref("B", sum(), sum())}) {
		t.Error("B(I+J,I+J) is singular, not injective")
	}
}
