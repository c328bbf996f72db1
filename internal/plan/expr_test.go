package plan

import (
	"testing"

	"repro/internal/forcelang"
)

// The expression machinery over hand-built trees: every Ref carries the
// symbol the checker would bind, and the symbols are what is compared.

func intSym(name string) *forcelang.Symbol {
	return &forcelang.Symbol{Decl: forcelang.Decl{Name: name, Type: forcelang.TInt}}
}
func intLit(v int64) *forcelang.IntLit { return &forcelang.IntLit{Value: v} }
func ref(sym *forcelang.Symbol, subs ...forcelang.Expr) *forcelang.Ref {
	return &forcelang.Ref{Name: sym.Name, Sym: sym, Subs: subs}
}
func bin(op forcelang.BinOp, l, r forcelang.Expr) *forcelang.Bin {
	return &forcelang.Bin{Op: op, L: l, R: r}
}

func TestUniformityJoin(t *testing.T) {
	if uniform.join(uniform) != uniform {
		t.Error("uniform join uniform should be uniform")
	}
	for _, pair := range [][2]uniformity{{uniform, varying}, {varying, uniform}, {varying, varying}} {
		if pair[0].join(pair[1]) != varying {
			t.Errorf("%v join %v should be varying", pair[0], pair[1])
		}
	}
	// assumed sits between: a value read from shared storage.
	for _, pair := range [][3]uniformity{{uniform, assumed, assumed}, {assumed, uniform, assumed}, {assumed, assumed, assumed}, {assumed, varying, varying}} {
		if got := pair[0].join(pair[1]); got != pair[2] {
			t.Errorf("%v join %v = %v, want %v", pair[0], pair[1], got, pair[2])
		}
	}
}

func TestWalkVisitsSubscripts(t *testing.T) {
	a, i, j, k := intSym("A"), intSym("I"), intSym("J"), intSym("K")
	// A(I+1) * MOD(J, 2) - (-K)
	e := bin(forcelang.OpSub,
		bin(forcelang.OpMul,
			ref(a, bin(forcelang.OpAdd, ref(i), intLit(1))),
			&forcelang.Intrinsic{Name: "MOD", Args: []forcelang.Expr{ref(j), intLit(2)}}),
		&forcelang.Un{Neg: true, X: ref(k)})
	var seen []*forcelang.Symbol
	walk(e, func(r *forcelang.Ref) { seen = append(seen, r.Sym) })
	if len(seen) != 4 || seen[0] != a || seen[1] != i || seen[2] != j || seen[3] != k {
		t.Errorf("visited %v, want A, I, J, K", seen)
	}
}

// TestMatchFold: the fold shapes of a scalar S, by its symbol.
func TestMatchFold(t *testing.T) {
	s, e, f := intSym("S"), intSym("E"), intSym("F")
	r := &forcelang.Symbol{Decl: forcelang.Decl{Name: "R", Type: forcelang.TReal}}
	other := intSym("S") // another scope's S: not the target
	maxOf := func(x, y forcelang.Expr) forcelang.Expr {
		return &forcelang.Intrinsic{Name: "MAX", Args: []forcelang.Expr{x, y}}
	}
	for _, tc := range []struct {
		name   string
		target *forcelang.Symbol
		rhs    forcelang.Expr
		want   string // one letter per term: + or -, x for MAX; "" for no match
	}{
		{"S = S + E", s, bin(forcelang.OpAdd, ref(s), ref(e)), "+"},
		{"S = E + S", s, bin(forcelang.OpAdd, ref(e), ref(s)), "+"},
		{"S = S - E", s, bin(forcelang.OpSub, ref(s), ref(e)), "-"},
		{"S = S - E + F", s, bin(forcelang.OpAdd, bin(forcelang.OpSub, ref(s), ref(e)), ref(f)), "+-"},
		{"R = R - E + F (a REAL chain)", r, bin(forcelang.OpAdd, bin(forcelang.OpSub, ref(r), ref(e)), ref(f)), ""},
		{"S = E - S", s, bin(forcelang.OpSub, ref(e), ref(s)), ""},
		{"S = S(1) + E", s, bin(forcelang.OpAdd, ref(s, intLit(1)), ref(e)), ""},
		{"S = S + S", s, bin(forcelang.OpAdd, ref(s), ref(s)), ""},
		{"another S", s, bin(forcelang.OpAdd, ref(other), ref(e)), ""},
		{"S = MAX(S, E)", s, maxOf(ref(s), ref(e)), "x"},
		{"S = MAX(E, S)", s, maxOf(ref(e), ref(s)), ""},
		{"S = MAX(S, S + E)", s, maxOf(ref(s), bin(forcelang.OpAdd, ref(s), ref(e))), ""},
	} {
		got := ""
		for _, a := range matchFold(&forcelang.Assign{Target: *ref(tc.target), Expr: tc.rhs}, nil) {
			switch {
			case a.Op == AccMax:
				got += "x"
			case a.Negate:
				got += "-"
			default:
				got += "+"
			}
		}
		if got != tc.want {
			t.Errorf("%s: terms %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestRefersTo(t *testing.T) {
	a, s := intSym("A"), intSym("S")
	e := bin(forcelang.OpAdd, ref(a, ref(s)), intLit(1))
	if !refersTo(e, s) {
		t.Error("S read inside a subscript should be found")
	}
	if refersTo(e, a) {
		t.Error("A is an array access, not a scalar read")
	}
	if refersTo(e, intSym("S")) {
		t.Error("another symbol spelled S is not S")
	}
}

// TestConstant: the one constant folder over INTEGER expressions, with and
// without an environment.
func TestConstant(t *testing.T) {
	k := intSym("K")
	neg := func(x forcelang.Expr) forcelang.Expr { return &forcelang.Un{Neg: true, X: x} }
	const minInt = -1 << 63
	env := map[*forcelang.Symbol]int64{k: 3}
	for _, tc := range []struct {
		name string
		e    forcelang.Expr
		env  map[*forcelang.Symbol]int64
		want int64
		ok   bool
	}{
		{"literal", intLit(7), nil, 7, true},
		{"sum", bin(forcelang.OpAdd, intLit(2), intLit(3)), nil, 5, true},
		{"difference", bin(forcelang.OpSub, intLit(2), intLit(3)), nil, -1, true},
		{"product", bin(forcelang.OpMul, intLit(2), intLit(3)), nil, 6, true},
		{"quotient truncates", bin(forcelang.OpDiv, intLit(-7), intLit(2)), nil, -3, true},
		{"unary minus", bin(forcelang.OpSub, bin(forcelang.OpMul, intLit(2), intLit(3)), neg(intLit(4))), nil, 10, true},
		{"product wraps", bin(forcelang.OpMul, intLit(1<<62), intLit(4)), nil, 0, true},
		{"-2⁶³ / -1 wraps", bin(forcelang.OpDiv, bin(forcelang.OpSub, neg(intLit(1<<62)), intLit(1<<62)), neg(intLit(1))), nil, minInt, true},
		{"division by zero is not folded", bin(forcelang.OpDiv, intLit(4), intLit(0)), nil, 0, false},
		{"a name without an environment", ref(k), nil, 0, false},
		{"a name the environment holds", bin(forcelang.OpDiv, intLit(10), ref(k)), env, 3, true},
		{"a name it does not", ref(intSym("I")), env, 0, false},
		{"an element", ref(k, intLit(1)), env, 0, false},
	} {
		if v, ok := constant[int64](tc.e, tc.env); ok != tc.ok || ok && v != tc.want {
			t.Errorf("%s: got %d, %v; want %d, %v", tc.name, v, ok, tc.want, tc.ok)
		}
	}
}

func TestCanonPositionIndependent(t *testing.T) {
	i := intSym("I")
	a := bin(forcelang.OpAdd, ref(i), intLit(1))
	b := forcelang.MustParse("Force P of NP ident ME\nPrivate Integer I, K\nEnd Declarations\n\n\nK = I + 1\nJoin\n").
		Body[0].(*forcelang.Assign).Expr
	if b.Pos() == a.Pos() {
		t.Fatal("want the two forms on different lines")
	}
	if Canon(a) != Canon(b) {
		t.Error("identical forms at different lines must share a key")
	}
	if Canon(a) == Canon(bin(forcelang.OpAdd, ref(i), intLit(2))) {
		t.Error("distinct forms must not collide")
	}
}

func intScalars(syms ...*forcelang.Symbol) func(*forcelang.Ref) bool {
	return func(r *forcelang.Ref) bool {
		for _, s := range syms {
			if r.Sym == s {
				return true
			}
		}
		return false
	}
}

func TestCoef(t *testing.T) {
	i, j, n := intSym("I"), intSym("J"), intSym("N")
	sp := &Space{outer: i, inner: j, intScalar: intScalars(n)}
	// 2*I - 3*J + N + 1
	e := bin(forcelang.OpAdd,
		bin(forcelang.OpSub,
			bin(forcelang.OpMul, intLit(2), ref(i)),
			bin(forcelang.OpMul, intLit(3), ref(j))),
		bin(forcelang.OpAdd, ref(n), intLit(1)))
	ci, cj, ok := sp.Coef(e)
	if !ok || ci != 2 || cj != -3 {
		t.Errorf("got (%d,%d,%v) want (2,-3,true)", ci, cj, ok)
	}
	// A remainder reading a non-admitted scalar fails.
	if _, _, ok := sp.Coef(bin(forcelang.OpAdd, ref(i), ref(intSym("X")))); ok {
		t.Error("remainder with unknown scalar should not decompose")
	}
	// Another symbol spelled I is no index.
	if _, _, ok := sp.Coef(ref(intSym("I"))); ok {
		t.Error("another symbol spelled I should not decompose")
	}
	// I*J is not affine.
	if _, _, ok := sp.Coef(bin(forcelang.OpMul, ref(i), ref(j))); ok {
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
		{"at the bound", mul(1<<31, ref(i)), 1 << 31, true},
		{"at the negative bound", mul(-(1 << 31), ref(i)), -(1 << 31), true},
		{"past the bound", mul(1<<31+1, ref(i)), 0, false},
		{"2^62 (wraps to 0 at I = 4)", mul(1<<62, ref(i)), 0, false},
		{"a product of small factors", mul(1<<16, mul(1<<16, ref(i))), 0, false},
		{"a sum past the bound", bin(forcelang.OpAdd, mul(1<<31, ref(i)), ref(i)), 0, false},
		{"a big literal in the rest (conservatively)", bin(forcelang.OpAdd, ref(i), mul(1<<40, ref(n))), 0, false},
	} {
		if ci, _, ok := sp.Coef(tc.e); ok != tc.ok || (ok && ci != tc.ci) {
			t.Errorf("%s: got (%d, %v), want (%d, %v)", tc.name, ci, ok, tc.ci, tc.ok)
		}
	}
}

func TestDisjoint(t *testing.T) {
	a, b, i, j, n := intSym("A"), intSym("B"), intSym("I"), intSym("J"), intSym("N")
	one := &Space{outer: i, intScalar: intScalars(n)}
	// A(I+1) everywhere: injective.
	iPlus1 := func() forcelang.Expr { return bin(forcelang.OpAdd, ref(i), intLit(1)) }
	form := func() *forcelang.Ref { return ref(a, iPlus1()) }
	if !one.Disjoint([]*forcelang.Ref{form(), form()}) {
		t.Error("A(I+1) is injective in I")
	}
	// A(N): no index coefficient — every iteration hits one element.
	if one.Disjoint([]*forcelang.Ref{ref(a, ref(n))}) {
		t.Error("A(N) is not disjoint across iterations")
	}
	// Mixed forms A(I) and A(I+1) collide across iterations.
	if one.Disjoint([]*forcelang.Ref{ref(a, ref(i)), form()}) {
		t.Error("mixed forms must stay non-disjoint")
	}
	// A(2^62*I + 1): nonzero coefficient, but 2^62 * 4 wraps to 0.
	wrap := ref(a, bin(forcelang.OpAdd, bin(forcelang.OpMul, intLit(1<<62), ref(i)), intLit(1)))
	if one.Disjoint([]*forcelang.Ref{wrap}) {
		t.Error("A(4611686018427387904*I + 1) is A(1) at I = 0 and at I = 4")
	}
	two := &Space{outer: i, inner: j}
	// B(I, J): identity map, injective.
	if !two.Disjoint([]*forcelang.Ref{ref(b, ref(i), ref(j))}) {
		t.Error("B(I,J) is injective in (I,J)")
	}
	// B(I+J, I+J): singular — (0,1) and (1,0) collide.
	sum := func() forcelang.Expr { return bin(forcelang.OpAdd, ref(i), ref(j)) }
	if two.Disjoint([]*forcelang.Ref{ref(b, sum(), sum())}) {
		t.Error("B(I+J,I+J) is singular, not injective")
	}
}

// TestDisjointThroughTemps: an index temporary reads as its definition in
// both the decomposition and the form comparison, one level deep.
func TestDisjointThroughTemps(t *testing.T) {
	a, i, k, m := intSym("A"), intSym("I"), intSym("K"), intSym("M")
	sp := &Space{outer: i, Temps: map[*forcelang.Symbol]forcelang.Expr{k: bin(forcelang.OpAdd, ref(i), intLit(1))}}
	if !sp.Disjoint([]*forcelang.Ref{ref(a, ref(k)), ref(a, bin(forcelang.OpAdd, ref(i), intLit(1)))}) {
		t.Error("A(K) and A(I+1) are one form when K = I + 1")
	}
	if sp.Disjoint([]*forcelang.Ref{ref(a, ref(k)), ref(a, ref(i))}) {
		t.Error("A(K) and A(I) collide when K = I + 1")
	}
	if ci, _, ok := sp.Coef(bin(forcelang.OpSub, ref(k), intLit(1))); !ok || ci != 1 {
		t.Errorf("K - 1: got (%d, %v), want (1, true)", ci, ok)
	}
	// A body that stores its own index first: I = 5, K = I + 1.  K reads
	// as I + 1 with I the index, not as 5 + 1.
	sp.Temps = map[*forcelang.Symbol]forcelang.Expr{i: intLit(5), m: bin(forcelang.OpAdd, ref(i), intLit(1))}
	if ci, _, ok := sp.Coef(ref(m)); !ok || ci != 1 {
		t.Errorf("M: got (%d, %v), want (1, true)", ci, ok)
	}
	if ci, _, ok := sp.Coef(ref(i)); !ok || ci != 0 {
		t.Errorf("I: got (%d, %v), want (0, true)", ci, ok)
	}
}
