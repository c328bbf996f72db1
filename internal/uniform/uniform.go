// Package uniform is the shared uniform/varying lattice over forcelang
// expressions, and the expression machinery the span tiers' planner
// (internal/plan) and the static analyzer (internal/vet) both stand on.
// Which names a statement list reads and writes is not here: that is
// plan.Summarize.
//
// The lattice is a chain of three points.  A value is Uniform when every
// process of the force (or, for a loop body, every iteration a process
// executes) computes the same value, Varying when it may not, and Assumed
// when it is the same only if the program is synchronized: it was read
// from shared storage.  The one analysis that assigns levels,
// internal/plan's flow, serves two readers that draw the line between
// them differently: forcevet, reading for protocol errors, calls Assumed
// uniform; the planner, acting on facts true in every execution, calls it
// varying.  Join is the lattice join: the higher point absorbs.
//
// The expression machinery: the Ref walker, the accumulate shape
// matchers (S = S + e | S = e + S | S = S - e, S = MAX(S, e) |
// S = MIN(S, e)), the one constant folder (Const), the
// position-independent structural key used to compare subscript forms,
// and the affine-subscript disjointness proof over a one- or two-index
// iteration space (one canonical form per array, literal coefficients,
// injective on the index space: a nonzero coefficient for one index, a
// nonsingular 2x2 minor for two).
package uniform

import (
	"fmt"

	"repro/internal/forcelang"
)

// Level is a point of the uniformity lattice, a chain: Uniform below
// Assumed below Varying.
type Level int

const (
	// Uniform marks a value every process (or iteration) computes
	// identically.
	Uniform Level = iota
	// Assumed marks a value read from shared or asynchronous storage: the
	// same in every process of a synchronized program, not in every
	// execution.
	Assumed
	// Varying marks a value that may differ across processes or
	// iterations (depends on ME, a loop index, or a varying input).
	Varying
)

// Join returns the lattice join: the higher point.
func (l Level) Join(o Level) Level { return max(l, o) }

// Walk visits every Ref in e, subscripts included.
func Walk(e forcelang.Expr, visit func(*forcelang.Ref)) {
	switch t := e.(type) {
	case *forcelang.Ref:
		visit(t)
		for _, s := range t.Subs {
			Walk(s, visit)
		}
	case *forcelang.Un:
		Walk(t.X, visit)
	case *forcelang.Bin:
		Walk(t.L, visit)
		Walk(t.R, visit)
	case *forcelang.Intrinsic:
		for _, a := range t.Args {
			Walk(a, visit)
		}
	}
}

// AccumDelta matches e against the accumulator shapes for scalar name
// (S = S + e, S = e + S, S = S - e), returning the delta expression and
// its sign.
func AccumDelta(name string, e forcelang.Expr) (delta forcelang.Expr, negate bool, ok bool) {
	b, isBin := e.(*forcelang.Bin)
	if !isBin {
		return nil, false, false
	}
	isSelf := func(x forcelang.Expr) bool {
		r, okRef := x.(*forcelang.Ref)
		return okRef && r.Name == name && len(r.Subs) == 0
	}
	switch b.Op {
	case forcelang.OpAdd:
		if isSelf(b.L) {
			return b.R, false, true
		}
		if isSelf(b.R) {
			return b.L, false, true
		}
	case forcelang.OpSub:
		if isSelf(b.L) {
			return b.R, true, true
		}
	}
	return nil, false, false
}

// AccumMinMax matches e against the extremum-accumulator shapes for
// scalar name (S = MAX(S, e) and the MIN twin), returning the
// contributed expression and which extremum is kept.  Only the
// self-first argument order is accepted: MAX keeps its first argument
// unless the second is *strictly* greater, so for REAL operands
// MAX(S, e) and MAX(e, S) disagree on NaN and signed-zero inputs, and
// only the self-first form composes exactly with a privately folded
// partial (contributions that never exceed S leave S bit-identical).
// Like AccumDelta this is purely syntactic; callers still check types
// and that arg does not read S.
func AccumMinMax(name string, e forcelang.Expr) (arg forcelang.Expr, isMax bool, ok bool) {
	in, isIntr := e.(*forcelang.Intrinsic)
	if !isIntr || len(in.Args) != 2 {
		return nil, false, false
	}
	switch in.Name {
	case "MAX", "MIN":
	default:
		return nil, false, false
	}
	r, okRef := in.Args[0].(*forcelang.Ref)
	if !okRef || r.Name != name || len(r.Subs) != 0 {
		return nil, false, false
	}
	return in.Args[1], in.Name == "MAX", true
}

// RefersTo reports whether e reads the scalar name anywhere.
func RefersTo(e forcelang.Expr, name string) bool {
	found := false
	Walk(e, func(r *forcelang.Ref) {
		if r.Name == name && len(r.Subs) == 0 {
			found = true
		}
	})
	return found
}

// Const folds e to its value as a T — int64 for an INTEGER expression,
// float64 for a REAL one — in the run time's arithmetic: literals, unary
// minus, + − * and / by a nonzero divisor (an INTEGER one wraps:
// -2⁶³ / -1 is -2⁶³, as forcert.Div has it), REAL(x) of an INTEGER x, and
// the unsubscripted names env holds an INTEGER value for.  A nil env folds
// literals only.  It is the one constant folder: the flow analysis
// (internal/plan/flow.go) folds with the constants it has proven, Space
// and the planner's trip counts with none.
func Const[T int64 | float64](e forcelang.Expr, env map[*forcelang.Symbol]int64) (T, bool) {
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
			v, ok := Const[int64](t.Args[0], env)
			return T(v), ok
		} else if t.Name == "REAL" {
			return Const[T](t.Args[0], env)
		}
	case *forcelang.Un:
		if t.Neg {
			v, ok := Const[T](t.X, env)
			return -v, ok
		}
	case *forcelang.Bin:
		l, lok := Const[T](t.L, env)
		r, rok := Const[T](t.R, env)
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
func Canon(e forcelang.Expr) string {
	switch t := e.(type) {
	case *forcelang.IntLit:
		return fmt.Sprintf("i%d", t.Value)
	case *forcelang.RealLit:
		return fmt.Sprintf("r%v", t.Value)
	case *forcelang.BoolLit:
		return fmt.Sprintf("l%v", t.Value)
	case *forcelang.Ref:
		s := "v" + t.Name
		if len(t.Subs) > 0 {
			s += "("
			for _, sub := range t.Subs {
				s += Canon(sub) + ","
			}
			s += ")"
		}
		return s
	case *forcelang.Un:
		if t.Neg {
			return "neg(" + Canon(t.X) + ")"
		}
		return "not(" + Canon(t.X) + ")"
	case *forcelang.Bin:
		return fmt.Sprintf("b%d(%s,%s)", int(t.Op), Canon(t.L), Canon(t.R))
	case *forcelang.Intrinsic:
		s := "f" + t.Name + "("
		for _, a := range t.Args {
			s += Canon(a) + ","
		}
		return s + ")"
	default:
		return fmt.Sprintf("?%T", e)
	}
}

// Space is a one- or two-index iteration space over which affine
// subscript forms are decomposed and proven injective.  Inner is ""
// for a single-index space.  IntScalar reports whether an unsubscripted
// reference (to anything but the indices) reads an INTEGER scalar whose
// value is identical for every iteration the decomposed form is
// evaluated in — the caller encodes its own written-set and
// parameter-aliasing rules there.
type Space struct {
	Outer, Inner string
	IntScalar    func(r *forcelang.Ref) bool
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

// Coef decomposes e as ci*Outer + cj*Inner + rest, requiring literal
// coefficients within ±maxCoef — every sum and every product k * c on the
// way included, so none of them wraps — and a rest that reads only scalars
// IntScalar admits (so the rest is identical for every iteration).
func (sp *Space) Coef(e forcelang.Expr) (ci, cj int64, ok bool) {
	ci, cj, ok = sp.coef(e)
	return ci, cj, ok && small(ci) && small(cj)
}

func (sp *Space) coef(e forcelang.Expr) (ci, cj int64, ok bool) {
	switch t := e.(type) {
	case *forcelang.IntLit:
		return 0, 0, true
	case *forcelang.Ref:
		if len(t.Subs) > 0 {
			return 0, 0, false
		}
		if t.Name == sp.Outer {
			return 1, 0, true
		}
		if sp.Inner != "" && t.Name == sp.Inner {
			return 0, 1, true
		}
		if sp.IntScalar != nil && sp.IntScalar(t) {
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
			k, kok := Const[int64](t.L, nil)
			x := t.R
			if !kok {
				k, kok = Const[int64](t.R, nil)
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
// subscript form (by Canon), each subscript must decompose affinely
// over the space, and the form must map distinct index tuples to
// distinct elements — a nonzero index coefficient for a one-index
// space, some linearly independent pair of subscript rows for two.
func (sp *Space) Disjoint(refs []*forcelang.Ref) bool {
	form := ""
	var coefs [][2]int64
	for ri, r := range refs {
		key := ""
		for _, s := range r.Subs {
			key += Canon(s) + ";"
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
	if sp.Inner == "" {
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
