package vet

// The flow pass: a forward dataflow walk over one unit's statements
// carrying, per private scalar, a point of the uniform/varying lattice
// (internal/uniform) and, per private INTEGER scalar, a known constant
// value.  The walk classifies every condition as uniform (every process
// evaluates the same value, so the force stays together) or varying
// (processes split), flags collective constructs reachable under a
// varying condition (FV001), and proves runtime faults: a divisor that
// is constant zero or provably reaches zero over an enclosing constant-
// bounds loop, a constant subscript outside the declared bounds, SQRT
// of a negative constant, MOD by zero, a zero loop step.  A provable
// fault under a varying condition is FV002 (a strict subset of
// processes aborts while the peers block at the next collective); on
// the uniform path it is FV003 (every process faults).
//
// Calls are analyzed inline: parameter levels are bound to the argument
// levels at the call site, and by-reference result levels propagate
// back.  Recursion is cut by marking reference arguments varying.

import (
	"fmt"

	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/uniform"
)

// loopRange is one enclosing DO loop with constant bounds, the space
// the divisor-reachability proof quantifies over.
type loopRange struct {
	v            *forcelang.Symbol // loop variable
	lo, hi, step int64
	constOK      bool
}

type flow struct {
	a    *analysis
	unit *unitInfo

	env    map[*forcelang.Symbol]uniform.Level // private variable -> level (zero value Uniform)
	consts map[*forcelang.Symbol]int64         // private INTEGER scalar -> known constant
	loops  []loopRange

	callPath map[string]bool // subs on the current inline path (cycle guard)
	inlined  bool            // analyzing a callee inline (suppresses FV102)
	depth    int             // enclosing construct depth (FV102 fires only at depth 0)
	mute     int             // >0: fixpoint iteration, do not emit diagnostics
}

// flowUnit analyzes one unit standalone: the main program, or a
// subroutine with its parameters assumed uniform.
func (a *analysis) flowUnit(u *unitInfo) {
	f := &flow{
		a:        a,
		unit:     u,
		env:      map[*forcelang.Symbol]uniform.Level{},
		consts:   map[*forcelang.Symbol]int64{},
		callPath: map[string]bool{},
	}
	f.stmts(u.body, uniform.Uniform)
}

func (f *flow) report(code string, sev Severity, line int, format string, args ...interface{}) {
	if f.mute > 0 {
		return
	}
	f.a.report(code, sev, line, format, args...)
}

// refLevel computes the lattice point of reading r.  Shared and async
// reads are uniform by convention — the synchronized-program reading
// the convergence idiom (DO WHILE over a barrier-maintained flag)
// depends on; the race and protocol passes own the cases where that
// convention is violated.
func (f *flow) refLevel(r *forcelang.Ref) uniform.Level {
	lv := uniform.Uniform
	switch {
	case r.Sym.Role == forcelang.RoleIdent:
		lv = uniform.Varying
	case r.Sym.Class == forcelang.Private:
		lv = f.env[r.Sym]
	}
	// An element read through a varying subscript differs across
	// processes even when every element is uniform.
	for _, s := range r.Subs {
		lv = lv.Join(f.exprLevel(s))
	}
	return lv
}

func (f *flow) exprLevel(e forcelang.Expr) uniform.Level {
	switch t := e.(type) {
	case *forcelang.Ref:
		return f.refLevel(t)
	case *forcelang.Un:
		return f.exprLevel(t.X)
	case *forcelang.Bin:
		return f.exprLevel(t.L).Join(f.exprLevel(t.R))
	case *forcelang.Intrinsic:
		lv := uniform.Uniform
		for _, arg := range t.Args {
			lv = lv.Join(f.exprLevel(arg))
		}
		return lv
	default:
		return uniform.Uniform // literals
	}
}

// constEval folds e to an INTEGER constant using literals and the
// known-constant private scalars.
func (f *flow) constEval(e forcelang.Expr) (int64, bool) {
	switch t := e.(type) {
	case *forcelang.IntLit:
		return t.Value, true
	case *forcelang.Ref:
		if len(t.Subs) == 0 {
			v, ok := f.consts[t.Sym]
			return v, ok
		}
	case *forcelang.Un:
		if t.Neg {
			v, ok := f.constEval(t.X)
			return -v, ok
		}
	case *forcelang.Bin:
		l, lok := f.constEval(t.L)
		r, rok := f.constEval(t.R)
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

// constReal folds the REAL expression e to a constant: REAL literals,
// and INTEGER constants where the checker converts one (REAL(...)).
func (f *flow) constReal(e forcelang.Expr) (float64, bool) {
	switch t := e.(type) {
	case *forcelang.RealLit:
		return t.Value, true
	case *forcelang.Intrinsic:
		if t.Name != "REAL" {
			break
		}
		if x := t.Args[0]; x.Type() == forcelang.TInt {
			v, ok := f.constEval(x)
			return float64(v), ok
		}
		return f.constReal(t.Args[0])
	case *forcelang.Un:
		if t.Neg {
			v, ok := f.constReal(t.X)
			return -v, ok
		}
	case *forcelang.Bin:
		l, lok := f.constReal(t.L)
		r, rok := f.constReal(t.R)
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

// fault reports a provable runtime fault — what would be the run-time
// error, in the run-time's own words: FV002 under a varying context,
// FV003 on the uniform path.  when qualifies it ("when I = 3").
func (f *flow) fault(line int, ctx uniform.Level, what *forcert.Err, when ...string) {
	msg := what.Message()
	for _, w := range when {
		msg += " " + w
	}
	if ctx == uniform.Varying {
		f.report("FV002", Error, line, "provable fault under non-uniform condition: %s", msg)
	} else {
		f.report("FV003", Warning, line, "provable fault: %s", msg)
	}
}

// zeroReachable proves an integer expression reaches zero over some
// enclosing constant-bounds loop: e must decompose as c*v + rest with
// nonzero literal coefficient c and constant rest, and -rest/c must be
// a value the loop actually visits.  Returns the loop variable and the
// witnessing value.
func (f *flow) zeroReachable(e forcelang.Expr) (string, int64, bool) {
	for i := len(f.loops) - 1; i >= 0; i-- {
		lr := f.loops[i]
		if !lr.constOK {
			continue
		}
		sp := &uniform.Space{Outer: lr.v.Name, IntScalar: func(r *forcelang.Ref) bool {
			_, ok := f.consts[r.Sym]
			return ok
		}}
		ci, _, ok := sp.Coef(e)
		if !ok || ci == 0 {
			continue
		}
		// rest = e with the loop variable at zero.
		saved, had := f.consts[lr.v]
		f.consts[lr.v] = 0
		rest, rok := f.constEval(e)
		if had {
			f.consts[lr.v] = saved
		} else {
			delete(f.consts, lr.v)
		}
		if !rok || (-rest)%ci != 0 {
			continue
		}
		v := -rest / ci
		if lr.step > 0 {
			if v < lr.lo || v > lr.hi || (v-lr.lo)%lr.step != 0 {
				continue
			}
		} else {
			if v > lr.lo || v < lr.hi || (lr.lo-v)%(-lr.step) != 0 {
				continue
			}
		}
		return lr.v.Name, v, true
	}
	return "", 0, false
}

// divisorFault proves an integer divisor is (or reaches) zero.
func (f *flow) divisorFault(div forcelang.Expr, line int, ctx uniform.Level, what *forcert.Err) {
	if v, ok := f.constEval(div); ok {
		if v == 0 {
			f.fault(line, ctx, what)
		}
		return
	}
	if lv, val, ok := f.zeroReachable(div); ok {
		f.fault(line, ctx, what, fmt.Sprintf("when %s = %d", lv, val))
	}
}

// faultsExpr walks e proving runtime faults: integer division and MOD
// by a (reachably) zero divisor, SQRT of a negative constant, constant
// subscripts outside the declared bounds.
func (f *flow) faultsExpr(e forcelang.Expr, ctx uniform.Level) {
	switch t := e.(type) {
	case *forcelang.Ref:
		f.faultsRef(t, ctx)
	case *forcelang.Un:
		f.faultsExpr(t.X, ctx)
	case *forcelang.Bin:
		f.faultsExpr(t.L, ctx)
		f.faultsExpr(t.R, ctx)
		if t.Op == forcelang.OpDiv && t.Type() == forcelang.TInt {
			f.divisorFault(t.R, t.Pos(), ctx, &forcert.Err{Kind: forcert.DivZero})
		}
	case *forcelang.Intrinsic:
		for _, arg := range t.Args {
			f.faultsExpr(arg, ctx)
		}
		switch t.Name {
		case "MOD":
			if len(t.Args) == 2 {
				if t.Args[1].Type() == forcelang.TInt {
					f.divisorFault(t.Args[1], t.Pos(), ctx, &forcert.Err{Kind: forcert.ModZero})
				} else if v, ok := f.constReal(t.Args[1]); ok && v == 0 {
					f.fault(t.Pos(), ctx, &forcert.Err{Kind: forcert.ModZero})
				}
			}
		case "SQRT":
			if len(t.Args) == 1 {
				if v, ok := f.constReal(t.Args[0]); ok && v < 0 {
					f.fault(t.Pos(), ctx, &forcert.Err{Kind: forcert.SqrtNegative, X: v})
				}
			}
		}
	}
}

// faultsRef checks constant subscripts against the declared bounds (and
// recurses into the subscript expressions).
func (f *flow) faultsRef(r *forcelang.Ref, ctx uniform.Level) {
	for _, s := range r.Subs {
		f.faultsExpr(s, ctx)
	}
	d := r.Sym
	if len(d.Dims) != len(r.Subs) {
		return // a whole-array argument
	}
	for i, s := range r.Subs {
		if v, ok := f.constEval(s); ok && (v < 1 || v > int64(d.Dims[i])) {
			f.fault(r.Pos(), ctx, &forcert.Err{Kind: forcert.BadSubscript, Dim: i + 1, Name: r.Name, S: v, N: int64(d.Dims[i])})
		}
	}
}

// faultsAsyncSub checks an async array element designator.
func (f *flow) faultsAsyncSub(d *forcelang.Symbol, sub forcelang.Expr, line int, ctx uniform.Level) {
	if sub == nil {
		return
	}
	f.faultsExpr(sub, ctx)
	if v, ok := f.constEval(sub); ok && (v < 1 || v > int64(d.Dims[0])) {
		f.fault(line, ctx, &forcert.Err{Kind: forcert.BadSubscript, Dim: 1, Name: d.Name, S: v, N: int64(d.Dims[0])})
	}
}

// setPrivate records a store's effect on the lattice and constant
// environments: the target takes level lv and, when expr (nil for a
// value no expression gives: a reduction's, a consumed one) folds to an
// INTEGER constant, that constant.
func (f *flow) setPrivate(target *forcelang.Ref, expr forcelang.Expr, lv uniform.Level) {
	d := target.Sym
	if d.Class != forcelang.Private {
		return
	}
	if len(target.Subs) == 0 {
		f.env[d] = lv
		if v, cok := f.constEval(expr); cok && d.Type == forcelang.TInt {
			f.consts[d] = v
		} else {
			delete(f.consts, d)
		}
		return
	}
	// Array element: weak update — join subscript levels too, a
	// varying subscript leaves different elements per process.
	for _, s := range target.Subs {
		lv = lv.Join(f.exprLevel(s))
	}
	f.env[d] = f.env[d].Join(lv)
}

// killWritten drops constants that a loop body (or a Pcase block) may
// overwrite, so in-body constant facts come only from the current
// iteration's own straight-line assignments.  The body's footprint is
// summarised once, however many fixpoint rounds ask.
func (f *flow) killWritten(body []forcelang.Stmt) {
	for _, acc := range f.a.summary(body).Accesses() {
		if acc.Written() {
			delete(f.consts, acc.Sym)
		}
	}
}

// cloneLevels and cloneConsts copy an environment into a map sized for
// it.  (Not maps.Clone: that clones the bucket structure, which on the
// mostly empty environments of script-cold costs 24 allocs and 1.9 KB
// per op, measured.)
func cloneLevels(m map[*forcelang.Symbol]uniform.Level) map[*forcelang.Symbol]uniform.Level {
	out := make(map[*forcelang.Symbol]uniform.Level, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func cloneConsts(m map[*forcelang.Symbol]int64) map[*forcelang.Symbol]int64 {
	out := make(map[*forcelang.Symbol]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// joinInto merges b into a pointwise (missing keys are Uniform).
func joinInto(a, b map[*forcelang.Symbol]uniform.Level) {
	for k, v := range b {
		a[k] = a[k].Join(v)
	}
}

// intersectConsts keeps only facts present and equal in both.
func intersectConsts(a, b map[*forcelang.Symbol]int64) {
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			delete(a, k)
		}
	}
}

func levelsEqual(a, b map[*forcelang.Symbol]uniform.Level) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}

// fixpoint iterates a loop body until the lattice environment stabilizes
// (diagnostics muted), then runs one final reporting pass on the stable
// environment.  cond, when non-nil, is the loop's condition: its level
// joins the body's context and is recomputed every round, since body
// writes can raise it.
func (f *flow) fixpoint(body []forcelang.Stmt, ctx uniform.Level, cond forcelang.Expr) {
	round := func() {
		f.killWritten(body)
		f.stmts(body, ctx.Join(f.exprLevel(cond)))
	}
	f.mute++
	for i := 0; i < 10; i++ {
		before := cloneLevels(f.env)
		round()
		joinInto(f.env, before)
		if levelsEqual(before, f.env) {
			break
		}
	}
	f.mute--
	round()
}

func (f *flow) stmts(list []forcelang.Stmt, ctx uniform.Level) {
	for _, st := range list {
		f.stmt(st, ctx)
	}
}

// loopBounds evaluates a loop's constant range (step nil means 1).
func (f *flow) loopBounds(v *forcelang.Symbol, from, to, step forcelang.Expr) loopRange {
	lr := loopRange{v: v, step: 1}
	lo, lok := f.constEval(from)
	hi, hok := f.constEval(to)
	sok := true
	if step != nil {
		lr.step, sok = f.constEval(step)
	}
	lr.lo, lr.hi = lo, hi
	lr.constOK = lok && hok && sok && lr.step != 0
	return lr
}

func (f *flow) stmt(st forcelang.Stmt, ctx uniform.Level) {
	switch t := st.(type) {
	case *forcelang.Assign:
		f.faultsExpr(t.Expr, ctx)
		f.faultsRef(&t.Target, ctx)
		lv := f.exprLevel(t.Expr).Join(ctx)
		f.checkReplicatedStore(t, ctx)
		f.setPrivate(&t.Target, t.Expr, lv)

	case *forcelang.If:
		f.faultsExpr(t.Cond, ctx)
		cl := f.exprLevel(t.Cond).Join(ctx)
		envT, constT := cloneLevels(f.env), cloneConsts(f.consts)
		f.stmts(t.Then, cl)
		envT, f.env = f.env, envT
		constT, f.consts = f.consts, constT
		f.stmts(t.Else, cl)
		joinInto(f.env, envT)
		intersectConsts(f.consts, constT)

	case *forcelang.SeqDo:
		f.faultsExpr(t.From, ctx)
		f.faultsExpr(t.To, ctx)
		blv := f.exprLevel(t.From).Join(f.exprLevel(t.To))
		if t.Step != nil {
			f.faultsExpr(t.Step, ctx)
			blv = blv.Join(f.exprLevel(t.Step))
			if v, ok := f.constEval(t.Step); ok && v == 0 {
				f.fault(t.Pos(), ctx, &forcert.Err{Kind: forcert.ZeroStep})
			}
		}
		lr := f.loopBounds(t.VarSym, t.From, t.To, t.Step)
		pre := cloneLevels(f.env)
		preConsts := cloneConsts(f.consts)
		f.env[t.VarSym] = blv.Join(ctx)
		delete(f.consts, t.VarSym)
		f.loops = append(f.loops, lr)
		f.fixpoint(t.Body, ctx.Join(blv), nil)
		f.loops = f.loops[:len(f.loops)-1]
		joinInto(f.env, pre)
		intersectConsts(f.consts, preConsts)

	case *forcelang.WhileDo:
		pre := cloneLevels(f.env)
		preConsts := cloneConsts(f.consts)
		f.faultsExpr(t.Cond, ctx)
		f.fixpoint(t.Body, ctx, t.Cond)
		joinInto(f.env, pre)
		intersectConsts(f.consts, preConsts)

	case *forcelang.ParDo:
		if ctx == uniform.Varying {
			f.report("FV001", Error, t.Pos(), "collective %s DO reachable under non-uniform condition", t.Sched)
		}
		f.faultsExpr(t.From, ctx)
		f.faultsExpr(t.To, ctx)
		if t.Step != nil {
			f.faultsExpr(t.Step, ctx)
			if v, ok := f.constEval(t.Step); ok && v == 0 {
				f.fault(t.Pos(), ctx, &forcert.Err{Kind: forcert.ZeroStep})
			}
		}
		outer := f.loopBounds(t.VarSym, t.From, t.To, t.Step)
		pre := cloneLevels(f.env)
		preConsts := cloneConsts(f.consts)
		f.env[t.VarSym] = uniform.Varying
		delete(f.consts, t.VarSym)
		f.loops = append(f.loops, outer)
		if t.Inner != nil {
			f.faultsExpr(t.Inner.From, ctx)
			f.faultsExpr(t.Inner.To, ctx)
			if t.Inner.Step != nil {
				f.faultsExpr(t.Inner.Step, ctx)
				if v, ok := f.constEval(t.Inner.Step); ok && v == 0 {
					f.fault(t.Pos(), ctx, &forcert.Err{Kind: forcert.ZeroStep})
				}
			}
			f.env[t.Inner.VarSym] = uniform.Varying
			delete(f.consts, t.Inner.VarSym)
			f.loops = append(f.loops, f.loopBounds(t.Inner.VarSym, t.Inner.From, t.Inner.To, t.Inner.Step))
		}
		f.depth++
		f.fixpoint(t.Body, uniform.Varying, nil)
		f.depth--
		if t.Inner != nil {
			f.loops = f.loops[:len(f.loops)-1]
		}
		f.loops = f.loops[:len(f.loops)-1]
		joinInto(f.env, pre)
		intersectConsts(f.consts, preConsts)
		// The loop variable's final value depends on the schedule.
		f.env[t.VarSym] = uniform.Varying

	case *forcelang.BarrierStmt:
		if ctx == uniform.Varying {
			f.report("FV001", Error, t.Pos(), "collective Barrier reachable under non-uniform condition")
		}
		// The section runs in exactly one process: its writes are
		// per-process facts, and a fault in it strikes one process
		// while the peers wait at the barrier.
		pre := cloneLevels(f.env)
		preConsts := cloneConsts(f.consts)
		f.depth++
		f.stmts(t.Section, uniform.Varying)
		f.depth--
		joinInto(f.env, pre)
		intersectConsts(f.consts, preConsts)

	case *forcelang.CriticalStmt:
		f.depth++
		f.stmts(t.Body, ctx)
		f.depth--

	case *forcelang.PcaseStmt:
		if ctx == uniform.Varying {
			f.report("FV001", Error, t.Pos(), "collective Pcase reachable under non-uniform condition")
		}
		pre := cloneLevels(f.env)
		preConsts := cloneConsts(f.consts)
		merged := cloneLevels(pre)
		for _, b := range t.Blocks {
			if b.Cond != nil {
				f.faultsExpr(b.Cond, ctx)
			}
			f.env = cloneLevels(pre)
			f.consts = cloneConsts(preConsts)
			f.depth++
			f.stmts(b.Body, uniform.Varying)
			f.depth--
			joinInto(merged, f.env)
		}
		f.env = merged
		f.consts = preConsts
		for _, b := range t.Blocks {
			f.killWritten(b.Body)
		}

	case *forcelang.AskforStmt:
		if ctx == uniform.Varying {
			f.report("FV001", Error, t.Pos(), "collective Askfor reachable under non-uniform condition")
		}
		f.faultsExpr(t.Seed, ctx)
		pre := cloneLevels(f.env)
		preConsts := cloneConsts(f.consts)
		f.env[t.VarSym] = uniform.Varying
		delete(f.consts, t.VarSym)
		f.depth++
		f.fixpoint(t.Body, uniform.Varying, nil)
		f.depth--
		joinInto(f.env, pre)
		intersectConsts(f.consts, preConsts)
		f.env[t.VarSym] = uniform.Varying

	case *forcelang.PutStmt:
		f.faultsExpr(t.Expr, ctx)

	case *forcelang.ReduceStmt:
		if ctx == uniform.Varying {
			f.report("FV001", Error, t.Pos(), "collective %s reachable under non-uniform condition", t.Op)
		}
		f.faultsExpr(t.Expr, ctx)
		f.faultsRef(&t.Target, ctx)
		// Every process receives the combined value.
		f.setPrivate(&t.Target, nil, ctx)

	case *forcelang.ProduceStmt:
		f.faultsAsyncSub(t.Sym, t.Sub, t.Pos(), ctx)
		f.faultsExpr(t.Expr, ctx)

	case *forcelang.ConsumeStmt:
		f.faultsAsyncSub(t.Sym, t.Sub, t.Pos(), ctx)
		f.faultsRef(&t.Target, ctx)
		// Full/empty hand-offs deliver different values to different
		// processes.
		f.setPrivate(&t.Target, nil, uniform.Varying)

	case *forcelang.CopyStmt:
		f.faultsAsyncSub(t.Sym, t.Sub, t.Pos(), ctx)
		f.faultsRef(&t.Target, ctx)
		f.setPrivate(&t.Target, nil, uniform.Varying)

	case *forcelang.VoidStmt:
		f.faultsAsyncSub(t.Sym, t.Sub, t.Pos(), ctx)

	case *forcelang.PrintStmt:
		for _, item := range t.Items {
			f.faultsExpr(item, ctx)
		}

	case *forcelang.CallStmt:
		f.call(t, ctx)
	}
}

// call analyzes a call site: FV001 when the callee transitively
// contains a collective and the context is varying, then an inline
// walk of the callee with parameter levels bound to the arguments.
func (f *flow) call(t *forcelang.CallStmt, ctx uniform.Level) {
	for i := range t.Args {
		f.faultsRef(&t.Args[i], ctx)
	}
	key := t.Name
	u, ok := f.a.subs[key]
	if !ok {
		return
	}
	siteFlagged := false
	if ctx == uniform.Varying && f.a.hasCollective(t.Name, map[string]bool{}) {
		f.report("FV001", Error, t.Pos(), "collective construct in %s reachable under non-uniform condition (call site)", t.Name)
		siteFlagged = true
	}
	if f.callPath[key] {
		// Recursion: assume every by-reference argument varies.
		for i := range t.Args {
			if t.Args[i].Sym.Class == forcelang.Private {
				f.env[t.Args[i].Sym] = uniform.Varying
			}
			delete(f.consts, t.Args[i].Sym)
		}
		return
	}
	sub := t.Callee
	cf := &flow{
		a:        f.a,
		unit:     u,
		env:      map[*forcelang.Symbol]uniform.Level{},
		consts:   map[*forcelang.Symbol]int64{},
		callPath: map[string]bool{},
		inlined:  true,
		mute:     f.mute,
	}
	if siteFlagged {
		// The call-site diagnostic already covers every collective in
		// the callee; walk it only for level propagation.
		cf.mute++
	}
	for k := range f.callPath {
		cf.callPath[k] = true
	}
	cf.callPath[key] = true
	params := sub.Scope.Params()
	for i, p := range params {
		cf.env[p] = f.refLevel(&t.Args[i])
	}
	cf.stmts(u.body, ctx)
	// Propagate by-reference results back to scalar arguments.
	for i, p := range params {
		if len(t.Args[i].Subs) > 0 {
			continue
		}
		arg := t.Args[i].Sym
		delete(f.consts, arg)
		if arg.Class == forcelang.Private {
			f.env[arg] = f.env[arg].Join(cf.env[p])
		}
	}
}

// checkReplicatedStore flags FV102: at force level of the main program
// (outside every construct, on the uniform path, not inside an inline
// call walk) every process executes the same assignment; a shared
// scalar target with a varying value or a read-modify-write is a
// replicated unsynchronized store.
func (f *flow) checkReplicatedStore(t *forcelang.Assign, ctx uniform.Level) {
	if f.unit.name != "" || f.inlined || f.depth > 0 || ctx == uniform.Varying {
		return
	}
	if !tracked(t.Target.Sym) {
		return
	}
	lv := f.exprLevel(t.Expr)
	if len(t.Target.Subs) == 0 {
		if uniform.RefersTo(t.Expr, t.Target.Name) {
			f.report("FV102", Warning, t.Pos(), "shared %s updated by every process at force level without synchronization (read-modify-write)", t.Target.Name)
		} else if lv == uniform.Varying {
			f.report("FV102", Warning, t.Pos(), "shared %s stored by every process at force level with differing values", t.Target.Name)
		}
		return
	}
	subsUniform := true
	for _, s := range t.Target.Subs {
		if f.exprLevel(s) == uniform.Varying {
			subsUniform = false
		}
	}
	if subsUniform && lv == uniform.Varying {
		f.report("FV102", Warning, t.Pos(), "every process stores a differing value into the same element of shared %s at force level", t.Target.Name)
	}
}
