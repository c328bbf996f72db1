package plan

// The expression machinery the footprint, the flow analysis, the
// classifier and forcevet stand on: the Ref walker, the one constant
// folder (constant), the position-independent structural key used to
// compare subscript forms (Canon), and the affine-subscript
// disjointness proof over a one- or two-index iteration space (one
// canonical form per array, literal coefficients, injective on the index
// space: a nonzero coefficient for one index, a nonsingular 2x2 minor for
// two).

import (
	"fmt"

	"repro/internal/forcelang"
)

// walk visits every Ref in e, subscripts included.
func walk(e forcelang.Expr, visit func(*forcelang.Ref)) {
	switch t := e.(type) {
	case *forcelang.Ref:
		visit(t)
		for _, s := range t.Subs {
			walk(s, visit)
		}
	case *forcelang.Un:
		walk(t.X, visit)
	case *forcelang.Bin:
		walk(t.L, visit)
		walk(t.R, visit)
	case *forcelang.Intrinsic:
		for _, a := range t.Args {
			walk(a, visit)
		}
	}
}

// refersTo reports whether e reads the scalar sym anywhere.
func refersTo(e forcelang.Expr, sym *forcelang.Symbol) bool {
	found := false
	walk(e, func(r *forcelang.Ref) {
		if r.Sym == sym && len(r.Subs) == 0 {
			found = true
		}
	})
	return found
}

// constant folds e to its value as a T — int64 for an INTEGER expression,
// float64 for a REAL one — in the run time's arithmetic: literals, unary
// minus, + − * and / by a nonzero divisor (an INTEGER one wraps:
// -2⁶³ / -1 is -2⁶³, as forcert.Div has it), REAL(x) of an INTEGER x, and
// the unsubscripted names env holds an INTEGER value for.  A nil env folds
// literals only.  It is the one constant folder: the flow analysis folds
// with the constants it has proven, Space and the trip counts with none.
func constant[T int64 | float64](e forcelang.Expr, env map[*forcelang.Symbol]int64) (T, bool) {
	switch t := e.(type) {
	case *forcelang.IntLit:
		return T(t.Value), true
	case *forcelang.RealLit:
		return T(t.Value), true
	case *forcelang.Ref:
		v, ok := env[t.Sym]
		return T(v), ok && len(t.Subs) == 0
	case *forcelang.Intrinsic:
		if t.Name == "REAL" && t.Args[0].Type() == forcelang.TInt {
			v, ok := constant[int64](t.Args[0], env)
			return T(v), ok
		} else if t.Name == "REAL" {
			return constant[T](t.Args[0], env)
		}
	case *forcelang.Un:
		if t.Neg {
			v, ok := constant[T](t.X, env)
			return -v, ok
		}
	case *forcelang.Bin:
		l, lok := constant[T](t.L, env)
		r, rok := constant[T](t.R, env)
		if !lok || !rok {
			return 0, false
		}
		switch t.Op {
		case forcelang.OpAdd:
			return l + r, true
		case forcelang.OpSub:
			return l - r, true
		case forcelang.OpMul:
			return l * r, true
		case forcelang.OpDiv:
			if r != 0 {
				return l / r, true
			}
		}
	}
	return 0, false
}

// Canon renders e to a position-independent structural key, used to
// compare subscript forms for identity.
func Canon(e forcelang.Expr) string { return canon(e, nil) }

// canon is Canon reading each of temps as its definition, itself read as
// written.
func canon(e forcelang.Expr, temps map[*forcelang.Symbol]forcelang.Expr) string {
	switch t := e.(type) {
	case *forcelang.IntLit:
		return fmt.Sprintf("i%d", t.Value)
	case *forcelang.RealLit:
		return fmt.Sprintf("r%v", t.Value)
	case *forcelang.BoolLit:
		return fmt.Sprintf("l%v", t.Value)
	case *forcelang.Ref:
		if def, ok := temps[t.Sym]; ok {
			return canon(def, nil)
		}
		s := "v" + t.Name
		if len(t.Subs) > 0 {
			s += "("
			for _, sub := range t.Subs {
				s += canon(sub, temps) + ","
			}
			s += ")"
		}
		return s
	case *forcelang.Un:
		if t.Neg {
			return "neg(" + canon(t.X, temps) + ")"
		}
		return "not(" + canon(t.X, temps) + ")"
	case *forcelang.Bin:
		return fmt.Sprintf("b%d(%s,%s)", int(t.Op), canon(t.L, temps), canon(t.R, temps))
	case *forcelang.Intrinsic:
		s := "f" + t.Name + "("
		for _, a := range t.Args {
			s += canon(a, temps) + ","
		}
		return s + ")"
	default:
		return fmt.Sprintf("?%T", e)
	}
}

// Space is a one- or two-index iteration space over which affine
// subscript forms are decomposed and proven injective (Summary.Space).
// inner is nil for a single-index space.  intScalar reports whether an
// unsubscripted reference (to anything but the indices) reads an INTEGER
// scalar whose value is identical for every iteration the decomposed form
// is evaluated in — the caller encodes its own written-set and
// parameter-aliasing rules there.
type Space struct {
	outer, inner *forcelang.Symbol
	intScalar    func(r *forcelang.Ref) bool
	// Temps are index temporaries, each read as its defining expression
	// (K = I + 1; A(K - 1) is A(I)); a definition is read as written,
	// through no temporary.  The planner's spaces have none.
	Temps map[*forcelang.Symbol]forcelang.Expr
}

// maxCoef bounds the index coefficients Coef answers for.  A subscript is
// evaluated in wrapping int64 arithmetic, where a literal coefficient c is
// injective on the index only as long as c times the distance between two
// index values stays short of 2⁶⁴: A(4611686018427387904*I + 1) is A(1) at
// I = 0 and at I = 4.  Within ±2³¹ two iterations can only meet on one
// element if their index values lie 2³³ or more apart, which takes a loop
// step no array a machine can hold is subscripted with.
const maxCoef = 1 << 31

func small(c int64) bool { return -maxCoef <= c && c <= maxCoef }

// Coef decomposes e as ci*outer + cj*inner + rest, requiring literal
// coefficients within ±maxCoef — every sum and every product k * c on the
// way included, so none of them wraps — and a rest that reads only scalars
// intScalar admits (so the rest is identical for every iteration).
func (sp *Space) Coef(e forcelang.Expr) (ci, cj int64, ok bool) {
	ci, cj, ok = sp.coef(e)
	return ci, cj, ok && small(ci) && small(cj)
}

func (sp *Space) coef(e forcelang.Expr) (ci, cj int64, ok bool) {
	switch t := e.(type) {
	case *forcelang.IntLit:
		return 0, 0, true
	case *forcelang.Ref:
		if def, ok := sp.Temps[t.Sym]; ok {
			return (&Space{outer: sp.outer, inner: sp.inner, intScalar: sp.intScalar}).Coef(def)
		}
		if len(t.Subs) > 0 {
			return 0, 0, false
		}
		if t.Sym == sp.outer {
			return 1, 0, true
		}
		if sp.inner != nil && t.Sym == sp.inner {
			return 0, 1, true
		}
		if sp.intScalar != nil && sp.intScalar(t) {
			return 0, 0, true
		}
		return 0, 0, false
	case *forcelang.Un:
		if !t.Neg {
			return 0, 0, false
		}
		ci, cj, ok = sp.Coef(t.X)
		return -ci, -cj, ok
	case *forcelang.Bin:
		switch t.Op {
		case forcelang.OpAdd, forcelang.OpSub:
			li, lj, lok := sp.Coef(t.L)
			ri, rj, rok := sp.Coef(t.R)
			if !lok || !rok {
				return 0, 0, false
			}
			if t.Op == forcelang.OpSub {
				return li - ri, lj - rj, true
			}
			return li + ri, lj + rj, true
		case forcelang.OpMul:
			// One factor is a literal — within the bound itself, so the
			// product of two bounded numbers cannot wrap back under it.
			k, kok := constant[int64](t.L, nil)
			x := t.R
			if !kok {
				k, kok = constant[int64](t.R, nil)
				x = t.L
			}
			if kok && small(k) {
				xi, xj, xok := sp.Coef(x)
				return k * xi, k * xj, xok
			}
		}
	}
	return 0, 0, false
}

// Disjoint checks the one-form + affine + injective conditions over all
// recorded accesses of one array: every access must use one identical
// subscript form (by canon, through Temps), each subscript must decompose
// affinely over the space, and the form must map distinct index tuples to
// distinct elements — a nonzero index coefficient for a one-index space,
// some linearly independent pair of subscript rows for two.
func (sp *Space) Disjoint(refs []*forcelang.Ref) bool {
	form := ""
	var coefs [][2]int64
	for ri, r := range refs {
		key := ""
		for _, s := range r.Subs {
			key += canon(s, sp.Temps) + ";"
		}
		if ri == 0 {
			form = key
			for _, s := range r.Subs {
				ci, cj, ok := sp.Coef(s)
				if !ok {
					return false
				}
				coefs = append(coefs, [2]int64{ci, cj})
			}
			continue
		}
		if key != form {
			// Two distinct subscript forms (e.g. A(I) and A(I+1)) can
			// collide across iterations.
			return false
		}
	}
	if sp.inner == nil {
		for _, c := range coefs {
			if c[0] != 0 {
				return true
			}
		}
		return false
	}
	// Two loop indices: some pair of subscript rows must be linearly
	// independent for the index pair to map injectively to elements.
	for a := 0; a < len(coefs); a++ {
		for b := a + 1; b < len(coefs); b++ {
			if coefs[a][0]*coefs[b][1]-coefs[a][1]*coefs[b][0] != 0 {
				return true
			}
		}
	}
	return false
}
