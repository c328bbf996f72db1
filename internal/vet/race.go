package vet

// The race pass: FV101 over every parallel construct body.  Inside a
// DOALL body, an Askfor task body, or across Pcase blocks, distinct
// processes execute concurrently, so a shared scalar or array write is
// flagged unless one of the proofs over the body's footprint applies —
// internal/plan's summary.go holds the footprint and the proofs, the same
// ones the span tiers lower from:
//
//   - every access to the name sits inside one Critical section (one
//     name — two different locks exclude nothing);
//   - the scalar is a pure accumulator: every write is the language's
//     shared accumulate (plan.MatchAccum: S = S ± e over an INTEGER,
//     S = MAX(S, e) / MIN(S, e) over an INTEGER or REAL) under one
//     operator, and the scalar is read nowhere else — every tier
//     executes such a statement as one atomic update;
//   - the array's accesses use one affine subscript form, injective on
//     the construct's index space, after substituting body-local index
//     temporaries (K = I + 1; A(K - 1) = ... is as disjoint as A(I));
//   - the name is only written, never read, and every stored value is
//     construct-uniform (the same in every iteration and process), so
//     the stores are idempotent.
//
// By-reference parameters are skipped: a parameter may alias anything,
// and its caller owns the synchronization story.

import (
	"repro/internal/forcelang"
	"repro/internal/plan"
	"repro/internal/uniform"
)

// racePass checks every parallel construct of a unit (the checker keeps
// collectives out of their bodies, so the constructs never nest).
func (a *analysis) racePass(u *unitInfo) {
	forEachStmt(u.body, func(st forcelang.Stmt) {
		switch t := st.(type) {
		case *forcelang.ParDo:
			var inner *forcelang.Symbol
			if t.Inner != nil {
				inner = t.Inner.VarSym
			}
			a.raceBody(t.Body, t.VarSym, inner, t.Sched.String()+" DO")
		case *forcelang.AskforStmt:
			a.raceBody(t.Body, nil, nil, "Askfor")
		case *forcelang.PcaseStmt:
			a.racePcase(t)
		}
	})
}

// tracked reports whether the race pass answers for the symbol: shared
// storage reached by its own name.
func tracked(sym *forcelang.Symbol) bool { return sym.Class == forcelang.Shared && !isParam(sym) }

// indexTemps finds the body's index temporaries: a private INTEGER scalar
// whose only store in the body is one top-level assignment (so it runs
// unconditionally, once per iteration) of a value affine in the loop
// indices, and which nothing reads before that assignment.  Past it, the
// temporary IS its defining expression.
func indexTemps(body []forcelang.Stmt, sum *plan.Summary, sp *uniform.Space) map[*forcelang.Symbol]forcelang.Expr {
	var temps map[*forcelang.Symbol]forcelang.Expr
	for _, st := range body {
		t, ok := st.(*forcelang.Assign)
		if !ok {
			continue
		}
		k := t.Target.Sym
		if k.Storage != forcelang.PrivateScalar || k.Type != forcelang.TInt {
			continue
		}
		if acc := sum.Of(k); acc.Writes != 1 || !acc.WrittenFirst {
			continue
		}
		if _, _, affine := sp.Coef(t.Expr); affine {
			if temps == nil {
				temps = map[*forcelang.Symbol]forcelang.Expr{}
			}
			temps[k] = t.Expr
		}
	}
	return temps
}

// substRefs returns refs with every index temporary inside a subscript
// replaced by its defining expression.
func substRefs(refs []*forcelang.Ref, temps map[*forcelang.Symbol]forcelang.Expr) []*forcelang.Ref {
	if len(temps) == 0 {
		return refs
	}
	out := make([]*forcelang.Ref, len(refs))
	for i, r := range refs {
		subs := make([]forcelang.Expr, len(r.Subs))
		for j, sub := range r.Subs {
			subs[j] = substExpr(sub, temps)
		}
		out[i] = &forcelang.Ref{Name: r.Name, Subs: subs}
	}
	return out
}

func substExpr(e forcelang.Expr, temps map[*forcelang.Symbol]forcelang.Expr) forcelang.Expr {
	switch t := e.(type) {
	case *forcelang.Ref:
		if rhs, ok := temps[t.Sym]; ok {
			return rhs
		}
		return t
	case *forcelang.Un:
		return &forcelang.Un{Neg: t.Neg, X: substExpr(t.X, temps)}
	case *forcelang.Bin:
		return &forcelang.Bin{Op: t.Op, L: substExpr(t.L, temps), R: substExpr(t.R, temps)}
	case *forcelang.Intrinsic:
		args := make([]forcelang.Expr, len(t.Args))
		for i, arg := range t.Args {
			args[i] = substExpr(arg, temps)
		}
		return &forcelang.Intrinsic{Name: t.Name, Args: args}
	default:
		return e
	}
}

// raceBody flags FV101 in one parallel construct body; outer and inner
// are its loop indices (nil for an Askfor body, and inner for one index).
func (a *analysis) raceBody(body []forcelang.Stmt, outer, inner *forcelang.Symbol, construct string) {
	sum := a.summary(body)
	var sp *uniform.Space
	var temps map[*forcelang.Symbol]forcelang.Expr
	if outer != nil {
		sp = sum.Space(outer, inner)
		temps = indexTemps(body, sum, sp)
	}
	for _, acc := range sum.Accesses() {
		sym := acc.Sym
		if !tracked(sym) || !acc.Written() || acc.OneCritical() != "" {
			continue
		}
		if _, ok := acc.Accumulator(); ok {
			continue // updates commute and every tier applies them atomically
		}
		if sp != nil && len(sym.Dims) > 0 && sp.Disjoint(substRefs(acc.Elems, temps)) {
			continue // provably element-disjoint across iterations
		}
		if sum.IdempotentStores(sym) {
			continue // same-value stores
		}
		a.report("FV101", Warning, int(acc.FirstWrite),
			"shared %s written in %s body outside Critical: not provably race-free", sym.Name, construct)
	}
}

// racePcase flags cross-block conflicts: two Pcase blocks run in
// different processes concurrently, so a name written in one block and
// touched in another needs one common Critical.
func (a *analysis) racePcase(t *forcelang.PcaseStmt) {
	sums := make([]*plan.Summary, len(t.Blocks))
	for i := range t.Blocks {
		// One block's footprint — its condition, which the claiming
		// process evaluates, and its body — is that of the Pcase holding
		// it alone.
		sums[i] = plan.Summarize([]forcelang.Stmt{&forcelang.PcaseStmt{Blocks: t.Blocks[i : i+1]}})
	}
	flagged := map[*forcelang.Symbol]bool{}
	for i, sum := range sums {
		for _, acc := range sum.Accesses() {
			if !tracked(acc.Sym) || !acc.Written() || flagged[acc.Sym] {
				continue
			}
			for j, other := range sums {
				o := other.Of(acc.Sym)
				if j == i || o == nil || (acc.OneCritical() != "" && acc.OneCritical() == o.OneCritical()) {
					continue
				}
				flagged[acc.Sym] = true
				a.report("FV101", Warning, int(acc.FirstWrite),
					"shared %s written in one Pcase block and accessed in another without a common Critical", acc.Sym.Name)
				break
			}
		}
	}
}
