package plan

// The flow analysis: the one dataflow walk over a checked program.  It
// carries, per private, a point of the uniformity lattice and, per
// private INTEGER scalar, a known constant, flow-sensitively: IF arms
// join, loops iterate to a fixpoint, a call walks the callee inline with
// its parameters bound to the argument levels and gives every argument the
// callee may write — an element, or one bound to a parameter declared
// Shared, as much as a private scalar — the level the callee left in it
// (recursion takes every by-reference argument as varying).  Every
// subroutine is walked on its own too, its parameters Assumed.
//
// Two readers, one walk.  What it proves that a checker names — a
// collective reachable under a varying condition, a provable fault (a
// divisor that is, or over an enclosing constant-bounds loop reaches,
// zero; a constant subscript out of bounds; SQRT of a negative constant;
// a zero step), a store every process repeats at force level — is
// Flow.Findings, which forcevet only names.  What holds at each DOALL's
// entry, joined over every walk that reaches it, is the planner's: a
// private at Uniform there holds one value in every process, a known
// constant is its value (classify.go).  A value read from shared storage
// is Assumed: uniform to forcevet, which reads a synchronized program,
// varying to the planner, which acts only on what holds in every
// execution.  The footprint of every loop body walked is kept for both.

import (
	"fmt"
	"sync/atomic"

	"repro/internal/forcelang"
	"repro/internal/forcert"
)

// uniformity is a point of the lattice the walk carries, a chain of three
// points, Uniform below Assumed below Varying: a value every process (or,
// in a loop body, every iteration a process executes) computes
// identically; one read from shared or asynchronous storage, the same in
// every process of a synchronized program but not in every execution; and
// one that may differ across processes or iterations (it depends on ME, a
// loop index, or a varying input).
type uniformity int

const (
	uniform uniformity = iota
	assumed
	varying
)

// join is the lattice join: the higher point.
func (l uniformity) join(o uniformity) uniformity { return max(l, o) }

// Flow is the analysis of one checked program (Analyze).
type Flow struct {
	// Findings are what the walk proves that a checker names, in the order
	// found (a statement walked again may repeat one).
	Findings []Finding

	entries    map[*forcelang.ParDo]entry
	sums       map[*forcelang.Stmt]*Summary // footprints of the loop and subroutine bodies walked, by first slot
	collective map[*forcelang.Subroutine]bool
}

// Finding is one thing the flow proves that a checker names.  What
// completes its sentence: the collective construct ("Barrier", "Presched
// DO", "GSUM"), the subroutine a call reaches one in, the fault in the run
// time's words (with "when I = 3" when a loop value is the witness), or the
// shared name stored.
type Finding struct {
	Kind FindingKind
	Line int
	What string
}

// FindingKind is what a Finding proves.
type FindingKind uint8

const (
	SkippedCollective FindingKind = iota // a collective reachable under a varying condition
	SkippedCall                          // a call, so reached, of a subroutine holding one
	SomeFault                            // a fault under a varying condition: some processes fault
	EveryFault                           // a fault on the uniform path
	// At force level of the main program every process stores to one
	// shared scalar a value read from there, or differing values to one
	// shared scalar or element.
	ReplicatedUpdate
	ReplicatedValues
	ReplicatedElement
)

// entry is what holds at a DOALL's entry on every walk that reaches it: the
// levels of the privates joined over the walks (a private none assigned
// holds its initial value, the same everywhere) and the INTEGER constants
// every walk agrees on.
type entry struct {
	levels map[*forcelang.Symbol]uniformity
	consts map[*forcelang.Symbol]int64
}

// uniform reports whether the private sym holds one value in every process
// at the entry (nil levels: no walk reached it).
func (e entry) uniform(sym *forcelang.Symbol) bool {
	return e.levels != nil && sym.Role != forcelang.RoleIdent && e.levels[sym] == uniform
}

// flowWalks counts the analyses made, for the test that pins one per
// program.
var flowWalks atomic.Int64

// Analyze returns the flow analysis of a checked program, made on the first
// call for prog and shared by every later one.
func Analyze(prog *forcelang.Program) *Flow {
	return prog.Flow(analyze).(*Flow)
}

func analyze(prog *forcelang.Program) any {
	flowWalks.Add(1)
	fl := &Flow{entries: map[*forcelang.ParDo]entry{}, sums: map[*forcelang.Stmt]*Summary{},
		collective: map[*forcelang.Subroutine]bool{}}
	// A subroutine holds a collective when it has one or calls one that does.
	for changed := true; changed; {
		changed = false
		for _, sub := range prog.Subs {
			forcelang.EachStmt(sub.Body, func(st forcelang.Stmt) {
				switch t := st.(type) {
				case *forcelang.BarrierStmt, *forcelang.ParDo, *forcelang.PcaseStmt, *forcelang.AskforStmt, *forcelang.ReduceStmt:
				case *forcelang.CallStmt:
					if !fl.collective[t.Callee] {
						return
					}
				default:
					return
				}
				changed = changed || !fl.collective[sub]
				fl.collective[sub] = true
			})
		}
	}
	fl.unit(prog.Body, nil)
	for _, sub := range prog.Subs {
		fl.unit(sub.Body, sub)
	}
	return fl
}

// Summary returns the footprint of a statement list: the one the walk took
// of a loop or subroutine body, or a fresh one.
func (fl *Flow) Summary(list []forcelang.Stmt) *Summary {
	if len(list) > 0 {
		if s, ok := fl.sums[&list[0]]; ok {
			return s
		}
	}
	return Summarize(list)
}

// footprint is Summary(body), kept: a body's footprint is taken once
// however many fixpoint rounds, inline walks and plans ask.
func (fl *Flow) footprint(body []forcelang.Stmt) *Summary {
	sum := fl.Summary(body)
	if len(body) > 0 {
		fl.sums[&body[0]] = sum
	}
	return sum
}

// loopRange is one enclosing DO loop with constant bounds, the space the
// divisor-reachability proof quantifies over.
type loopRange struct {
	v            *forcelang.Symbol // loop variable
	lo, hi, step int64
	constOK      bool
}

// runs reports whether the constant range visits at least one value.
func (lr loopRange) runs() bool {
	return lr.constOK && (lr.step > 0 && lr.lo <= lr.hi || lr.step < 0 && lr.lo >= lr.hi)
}

// walker is one walk of a unit: the main program, a subroutine on its own,
// or a callee inline.
type walker struct {
	fl  *Flow
	sub *forcelang.Subroutine // nil for the main program

	env    map[*forcelang.Symbol]uniformity // private -> level (zero value Uniform)
	consts map[*forcelang.Symbol]int64      // private INTEGER scalar -> known constant
	loops  []loopRange

	callPath map[*forcelang.Subroutine]bool // subroutines on the current inline path
	depth    int                            // enclosing construct depth (replicated stores only at 0)
	mute     int                            // >0: a fixpoint round, record no findings
	first    firstIter                      // the DOALL body every run enters, outside a varying IF or nested loop in it
}

// firstIter is a DOALL body reached on the uniform path whose trip count
// folds to a nonzero constant: some process runs its first iteration (sum
// nil: no such body).
type firstIter struct {
	sum          *Summary
	outer, inner *forcelang.Symbol
}

// everyIteration reports whether e, inside such a body, reads nothing an
// iteration changes — not an index, nothing the body writes — so a fault in
// it strikes whichever process takes the first iteration.
func (w *walker) everyIteration(e forcelang.Expr) bool {
	f, ok := &w.first, w.first.sum != nil
	if ok {
		walk(e, func(r *forcelang.Ref) { ok = ok && r.Sym != f.outer && r.Sym != f.inner && !f.sum.Written(r.Sym) })
	}
	return ok
}

func newWalker(fl *Flow, sub *forcelang.Subroutine) *walker {
	return &walker{fl: fl, sub: sub, env: map[*forcelang.Symbol]uniformity{},
		consts: map[*forcelang.Symbol]int64{}, callPath: map[*forcelang.Subroutine]bool{}}
}

// unit walks one unit on its own: the main program, or a subroutine with
// its parameters Assumed — uniform if every caller passes uniform
// arguments, which is not known here.
func (fl *Flow) unit(body []forcelang.Stmt, sub *forcelang.Subroutine) {
	w := newWalker(fl, sub)
	if sub != nil {
		for _, p := range sub.Scope.Params() {
			w.env[p] = assumed
		}
	}
	w.stmts(body, uniform)
}

func (w *walker) find(kind FindingKind, line int, what string) {
	if w.mute == 0 {
		w.fl.Findings = append(w.fl.Findings, Finding{Kind: kind, Line: line, What: what})
	}
}

// collective records a collective construct reached under a varying
// context.
func (w *walker) collective(ctx uniformity, line int, what string) {
	if ctx == varying {
		w.find(SkippedCollective, line, what)
	}
}

// enter records what holds at t's entry on this walk, joined into what
// earlier walks recorded.
func (w *walker) enter(t *forcelang.ParDo) {
	if e, ok := w.fl.entries[t]; ok {
		joinInto(e.levels, w.env)
		intersectConsts(e.consts, w.consts)
	} else {
		w.fl.entries[t] = entry{clone(w.env), clone(w.consts)}
	}
}

// refLevel is the level of reading r.  ME varies; NP does not; another
// shared or asynchronous name is Assumed.
func (w *walker) refLevel(r *forcelang.Ref) uniformity {
	var lv uniformity
	switch {
	case r.Sym.Role == forcelang.RoleIdent:
		lv = varying
	case r.Sym.Class == forcelang.Private:
		lv = w.env[r.Sym]
	case r.Sym.Role != forcelang.RoleNP:
		lv = assumed
	}
	// An element read through a varying subscript differs across
	// processes even when every element is uniform.
	for _, s := range r.Subs {
		lv = lv.join(w.exprLevel(s))
	}
	return lv
}

func (w *walker) exprLevel(e forcelang.Expr) uniformity {
	switch t := e.(type) {
	case *forcelang.Ref:
		return w.refLevel(t)
	case *forcelang.Un:
		return w.exprLevel(t.X)
	case *forcelang.Bin:
		return w.exprLevel(t.L).join(w.exprLevel(t.R))
	case *forcelang.Intrinsic:
		lv := uniform
		for _, arg := range t.Args {
			lv = lv.join(w.exprLevel(arg))
		}
		return lv
	default:
		return uniform // literals
	}
}

// fault records a provable run-time fault of the operand e, in the run
// time's own words: SomeFault under a varying context, EveryFault on the
// uniform path or in every iteration of a body some process enters.  when
// qualifies it ("when I = 3").
func (w *walker) fault(line int, ctx uniformity, e forcelang.Expr, what *forcert.Err, when ...string) {
	msg, kind := what.Message(), EveryFault
	for _, s := range when {
		msg += " " + s
	}
	if ctx == varying && !w.everyIteration(e) {
		kind = SomeFault
	}
	w.find(kind, line, msg)
}

// zeroReachable proves an integer expression reaches zero over some
// enclosing constant-bounds loop: e must decompose as c*v + rest with
// nonzero literal coefficient c and constant rest, and -rest/c must be a
// value the loop actually visits.  Returns the loop variable and the
// witnessing value.
func (w *walker) zeroReachable(e forcelang.Expr) (string, int64, bool) {
	for i := len(w.loops) - 1; i >= 0; i-- {
		lr := w.loops[i]
		if !lr.constOK {
			continue
		}
		sp := &Space{outer: lr.v, intScalar: func(r *forcelang.Ref) bool {
			_, ok := w.consts[r.Sym]
			return ok
		}}
		ci, _, ok := sp.Coef(e)
		if !ok || ci == 0 {
			continue
		}
		// rest = e with the loop variable at zero.
		saved, had := w.consts[lr.v]
		w.consts[lr.v] = 0
		rest, rok := constant[int64](e, w.consts)
		if had {
			w.consts[lr.v] = saved
		} else {
			delete(w.consts, lr.v)
		}
		if !rok || (-rest)%ci != 0 {
			continue
		}
		v := -rest / ci
		visited := lr.lo <= v && v <= lr.hi
		if lr.step < 0 {
			visited = lr.hi <= v && v <= lr.lo
		}
		if visited && (v-lr.lo)%lr.step == 0 {
			return lr.v.Name, v, true
		}
	}
	return "", 0, false
}

// divisorFault proves an integer divisor is (or reaches) zero.
func (w *walker) divisorFault(div forcelang.Expr, line int, ctx uniformity, what *forcert.Err) {
	if v, ok := constant[int64](div, w.consts); ok {
		if v == 0 {
			w.fault(line, ctx, div, what)
		}
		return
	}
	if lv, val, ok := w.zeroReachable(div); ok {
		w.fault(line, ctx, div, what, fmt.Sprintf("when %s = %d", lv, val))
	}
}

// faultsExpr walks e proving runtime faults: integer division and MOD by a
// (reachably) zero divisor, SQRT of a negative constant, constant
// subscripts outside the declared bounds.
func (w *walker) faultsExpr(e forcelang.Expr, ctx uniformity) {
	switch t := e.(type) {
	case *forcelang.Ref:
		w.faultsRef(t, ctx)
	case *forcelang.Un:
		w.faultsExpr(t.X, ctx)
	case *forcelang.Bin:
		w.faultsExpr(t.L, ctx)
		w.faultsExpr(t.R, ctx)
		if t.Op == forcelang.OpDiv && t.Type() == forcelang.TInt {
			w.divisorFault(t.R, t.Pos(), ctx, &forcert.Err{Kind: forcert.DivZero})
		}
	case *forcelang.Intrinsic:
		for _, arg := range t.Args {
			w.faultsExpr(arg, ctx)
		}
		switch t.Name {
		case "MOD":
			// Only INTEGER MOD raises: a REAL MOD by zero is a NaN.
			if len(t.Args) == 2 && t.Args[1].Type() == forcelang.TInt {
				w.divisorFault(t.Args[1], t.Pos(), ctx, &forcert.Err{Kind: forcert.ModZero})
			}
		case "SQRT":
			if len(t.Args) == 1 {
				if v, ok := constant[float64](t.Args[0], w.consts); ok && v < 0 {
					w.fault(t.Pos(), ctx, t.Args[0], &forcert.Err{Kind: forcert.SqrtNegative, X: v})
				}
			}
		}
	}
}

// faultsRef checks constant subscripts against the declared bounds (and
// recurses into the subscript expressions).
func (w *walker) faultsRef(r *forcelang.Ref, ctx uniformity) {
	for _, s := range r.Subs {
		w.faultsExpr(s, ctx)
	}
	if len(r.Sym.Dims) == len(r.Subs) { // else a whole-array argument
		for i, s := range r.Subs {
			w.bound(r.Sym, i, s, r.Pos(), ctx)
		}
	}
}

// faultsAsyncSub checks an async array element designator.
func (w *walker) faultsAsyncSub(d *forcelang.Symbol, sub forcelang.Expr, line int, ctx uniformity) {
	if sub != nil {
		w.faultsExpr(sub, ctx)
		w.bound(d, 0, sub, line, ctx)
	}
}

// bound checks a constant subscript s of dimension i of d.
func (w *walker) bound(d *forcelang.Symbol, i int, s forcelang.Expr, line int, ctx uniformity) {
	if v, ok := constant[int64](s, w.consts); ok && (v < 1 || v > int64(d.Dims[i])) {
		w.fault(line, ctx, s, &forcert.Err{Kind: forcert.BadSubscript, Dim: i + 1, Name: d.Name, S: v, N: int64(d.Dims[i])})
	}
}

// tracked reports whether the walk keeps a level for d: a private, or a
// parameter of either declared class, which may alias a caller's private
// (call copies its level back).
func tracked(d *forcelang.Symbol) bool {
	return d.Class == forcelang.Private || d.Storage == forcelang.Parameter
}

// setPrivate records a store's effect on the environments: the target
// takes level lv and, when it is a private and expr (nil for a value no
// expression gives: a reduction's, a consumed one) folds to an INTEGER
// constant, that constant.
func (w *walker) setPrivate(target *forcelang.Ref, expr forcelang.Expr, lv uniformity) {
	d := target.Sym
	if !tracked(d) {
		return
	}
	if len(target.Subs) == 0 {
		w.env[d] = lv
		if v, ok := constant[int64](expr, w.consts); ok && d.Type == forcelang.TInt && d.Class == forcelang.Private {
			w.consts[d] = v
		} else {
			delete(w.consts, d)
		}
		return
	}
	// Array element: weak update — join subscript levels too, a varying
	// subscript leaves different elements per process.
	for _, s := range target.Subs {
		lv = lv.join(w.exprLevel(s))
	}
	w.env[d] = w.env[d].join(lv)
}

// killWritten drops the constants a loop body (or a Pcase block) may
// overwrite, so in-body constant facts come only from the current
// iteration's own straight-line assignments.
func (w *walker) killWritten(body []forcelang.Stmt) {
	for _, acc := range w.fl.footprint(body).Accesses() {
		if acc.Written() {
			delete(w.consts, acc.Sym)
		}
	}
}

// clone copies an environment into a map sized for it.  (Not maps.Clone:
// that clones the bucket structure, which on the mostly empty environments
// of script-cold costs 24 allocs and 1.9 KB per op, measured.)
func clone[V uniformity | int64](m map[*forcelang.Symbol]V) map[*forcelang.Symbol]V {
	out := make(map[*forcelang.Symbol]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// joinInto merges b into a pointwise (missing keys are Uniform).
func joinInto(a, b map[*forcelang.Symbol]uniformity) {
	for k, v := range b {
		a[k] = a[k].join(v)
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

// fixpoint walks a loop body until the level environment stops rising
// (findings muted), then once more on the stable environment, recording.
// Every round starts from the join of all before it, so the levels only
// rise and the rounds end; there is no cap, as one cut short would leave
// the planner a level below the truth.  cond, when non-nil, is the loop's
// condition: its level joins the body's context and is recomputed every
// round, since body writes can raise it.
func (w *walker) fixpoint(body []forcelang.Stmt, ctx uniformity, cond forcelang.Expr) {
	round := func() {
		w.killWritten(body)
		w.stmts(body, ctx.join(w.exprLevel(cond)))
	}
	w.mute++
	for risen := true; risen; {
		before := clone(w.env)
		round()
		joinInto(w.env, before)
		risen = false
		for k, v := range w.env { // every key of before is here, at or above its level
			risen = risen || before[k] != v
		}
	}
	w.mute--
	round()
}

func (w *walker) stmts(list []forcelang.Stmt, ctx uniformity) {
	for _, st := range list {
		w.stmt(st, ctx)
	}
}

// header checks a loop header for provable faults, a constant zero step
// included, and returns its constant range (step nil means 1).
func (w *walker) header(v *forcelang.Symbol, from, to, step forcelang.Expr, line int, ctx uniformity) loopRange {
	w.faultsExpr(from, ctx)
	w.faultsExpr(to, ctx)
	lr, sok := loopRange{v: v, step: 1}, true
	if step != nil {
		w.faultsExpr(step, ctx)
		if lr.step, sok = constant[int64](step, w.consts); sok && lr.step == 0 {
			w.fault(line, ctx, step, &forcert.Err{Kind: forcert.ZeroStep})
		}
	}
	lo, lok := constant[int64](from, w.consts)
	hi, hok := constant[int64](to, w.consts)
	lr.lo, lr.hi, lr.constOK = lo, hi, lok && hok && sok && lr.step != 0
	return lr
}

// scope runs body, a construct's walk, and restores the environments it
// was entered with, joined with (levels) and intersected with (constants)
// what the body left.
func (w *walker) scope(body func()) {
	pre, preConsts := clone(w.env), clone(w.consts)
	body()
	joinInto(w.env, pre)
	intersectConsts(w.consts, preConsts)
}

func (w *walker) stmt(st forcelang.Stmt, ctx uniformity) {
	switch st.(type) {
	case *forcelang.SeqDo, *forcelang.WhileDo, *forcelang.ParDo, *forcelang.BarrierStmt, *forcelang.PcaseStmt, *forcelang.AskforStmt:
		first := w.first // a body that may not run, or runs in one process
		w.first = firstIter{}
		defer func() { w.first = first }()
	}
	switch t := st.(type) {
	case *forcelang.Assign:
		w.faultsExpr(t.Expr, ctx)
		w.faultsRef(&t.Target, ctx)
		lv := w.exprLevel(t.Expr).join(ctx)
		w.replicatedStore(t, ctx)
		w.setPrivate(&t.Target, t.Expr, lv)
	case *forcelang.If:
		w.faultsExpr(t.Cond, ctx)
		cl, first := w.exprLevel(t.Cond).join(ctx), w.first
		if !w.everyIteration(t.Cond) || w.exprLevel(t.Cond) == varying {
			w.first = firstIter{}
		}
		envT, constT := clone(w.env), clone(w.consts)
		w.stmts(t.Then, cl)
		envT, w.env = w.env, envT
		constT, w.consts = w.consts, constT
		w.stmts(t.Else, cl)
		joinInto(w.env, envT)
		intersectConsts(w.consts, constT)
		w.first = first
	case *forcelang.SeqDo:
		lr := w.header(t.VarSym, t.From, t.To, t.Step, t.Pos(), ctx)
		blv := w.exprLevel(t.From).join(w.exprLevel(t.To)).join(w.exprLevel(t.Step)) // a nil Step is Uniform
		w.scope(func() {
			w.env[t.VarSym] = blv.join(ctx)
			delete(w.consts, t.VarSym)
			w.loops = append(w.loops, lr)
			w.fixpoint(t.Body, ctx.join(blv), nil)
			w.loops = w.loops[:len(w.loops)-1]
		})
	case *forcelang.WhileDo:
		w.scope(func() {
			w.faultsExpr(t.Cond, ctx)
			w.fixpoint(t.Body, ctx, t.Cond)
		})
	case *forcelang.ParDo:
		w.collective(ctx, t.Pos(), t.Sched.String()+" DO")
		outer := w.header(t.VarSym, t.From, t.To, t.Step, t.Pos(), ctx)
		w.scope(func() {
			n := len(w.loops)
			w.env[t.VarSym] = varying
			delete(w.consts, t.VarSym)
			w.loops = append(w.loops, outer)
			first, runs := firstIter{outer: t.VarSym}, outer.runs()
			if in := t.Inner; in != nil {
				inner := w.header(in.VarSym, in.From, in.To, in.Step, t.Pos(), ctx)
				w.env[in.VarSym] = varying
				delete(w.consts, in.VarSym)
				w.loops = append(w.loops, inner)
				first.inner, runs = in.VarSym, runs && inner.runs()
			}
			if ctx != varying && runs {
				first.sum = w.fl.footprint(t.Body)
				w.first = first
			}
			w.enter(t)
			w.depth++
			w.fixpoint(t.Body, varying, nil)
			w.depth--
			w.loops = w.loops[:n]
		})
		// The loop variable's final value depends on the schedule.
		w.env[t.VarSym] = varying
	case *forcelang.BarrierStmt:
		w.collective(ctx, t.Pos(), "Barrier")
		// The section runs in exactly one process: its writes are
		// per-process facts, and a fault in it strikes one process while
		// the peers wait at the barrier.
		w.scope(func() {
			w.depth++
			w.stmts(t.Section, varying)
			w.depth--
		})
	case *forcelang.CriticalStmt:
		w.depth++
		w.stmts(t.Body, ctx)
		w.depth--
	case *forcelang.PcaseStmt:
		w.collective(ctx, t.Pos(), "Pcase")
		pre, preConsts := clone(w.env), clone(w.consts)
		merged := clone(pre)
		for _, b := range t.Blocks {
			w.faultsExpr(b.Cond, ctx)
			w.env, w.consts = clone(pre), clone(preConsts)
			w.depth++
			w.stmts(b.Body, varying)
			w.depth--
			joinInto(merged, w.env)
		}
		w.env, w.consts = merged, preConsts
		for _, b := range t.Blocks {
			w.killWritten(b.Body)
		}
	case *forcelang.AskforStmt:
		w.collective(ctx, t.Pos(), "Askfor")
		w.faultsExpr(t.Seed, ctx)
		w.scope(func() {
			w.env[t.VarSym] = varying
			delete(w.consts, t.VarSym)
			w.depth++
			w.fixpoint(t.Body, varying, nil)
			w.depth--
		})
		w.env[t.VarSym] = varying
	case *forcelang.PutStmt:
		w.faultsExpr(t.Expr, ctx)
	case *forcelang.ReduceStmt:
		w.collective(ctx, t.Pos(), t.Op.String())
		w.faultsExpr(t.Expr, ctx)
		w.faultsRef(&t.Target, ctx)
		// Every process receives the combined value.
		w.setPrivate(&t.Target, nil, ctx)
	case *forcelang.ProduceStmt:
		w.faultsAsyncSub(t.Sym, t.Sub, t.Pos(), ctx)
		w.faultsExpr(t.Expr, ctx)
	case *forcelang.ConsumeStmt:
		w.faultsAsyncSub(t.Sym, t.Sub, t.Pos(), ctx)
		w.faultsRef(&t.Target, ctx)
		// Full/empty hand-offs deliver different values to different
		// processes.
		w.setPrivate(&t.Target, nil, varying)
	case *forcelang.CopyStmt:
		w.faultsAsyncSub(t.Sym, t.Sub, t.Pos(), ctx)
		w.faultsRef(&t.Target, ctx)
		w.setPrivate(&t.Target, nil, varying)
	case *forcelang.VoidStmt:
		w.faultsAsyncSub(t.Sym, t.Sub, t.Pos(), ctx)
	case *forcelang.PrintStmt:
		for _, item := range t.Items {
			w.faultsExpr(item, ctx)
		}
	case *forcelang.CallStmt:
		w.call(t, ctx)
	}
}

// call walks a call site: a SkippedCall finding when the callee holds a
// collective and the context varies, then an inline walk of the callee
// with its parameters bound to the argument levels.
func (w *walker) call(t *forcelang.CallStmt, ctx uniformity) {
	for i := range t.Args {
		w.faultsRef(&t.Args[i], ctx)
	}
	sub := t.Callee
	if sub == nil {
		return
	}
	siteFound := false
	if ctx == varying && w.fl.collective[sub] {
		w.find(SkippedCall, t.Pos(), t.Name)
		siteFound = true
	}
	if w.callPath[sub] {
		// Recursion: assume every by-reference argument varies.
		for i := range t.Args {
			if tracked(t.Args[i].Sym) {
				w.env[t.Args[i].Sym] = varying
			}
			delete(w.consts, t.Args[i].Sym)
		}
		return
	}
	cw := newWalker(w.fl, sub)
	cw.mute = w.mute
	if siteFound {
		// The call-site finding covers every collective in the callee;
		// walk it only for the levels.
		cw.mute++
	}
	for k := range w.callPath {
		cw.callPath[k] = true
	}
	cw.callPath[sub] = true
	params := sub.Scope.Params()
	for i, p := range params {
		cw.env[p] = w.refLevel(&t.Args[i])
	}
	cw.stmts(sub.Body, ctx)
	// Copy by-reference results back: an argument the callee may write (its
	// footprint, nested calls included) joins the parameter's level at the
	// callee's exit, an element argument with its subscripts' levels too, as
	// a store to the element would.
	written := w.fl.footprint(sub.Body)
	for i, p := range params {
		arg := &t.Args[i]
		if !written.Written(p) {
			continue
		}
		delete(w.consts, arg.Sym)
		if tracked(arg.Sym) {
			lv := cw.env[p]
			for _, s := range arg.Subs {
				lv = lv.join(w.exprLevel(s))
			}
			w.env[arg.Sym] = w.env[arg.Sym].join(lv)
		}
	}
}

// replicatedStore records a store every process repeats: at force level of
// the main program (outside every construct, on the uniform path, not in
// a subroutine) every process executes the same assignment, so a shared
// scalar target with a varying value or a read-modify-write is a
// replicated unsynchronized store.
func (w *walker) replicatedStore(t *forcelang.Assign, ctx uniformity) {
	sym := t.Target.Sym
	if w.sub != nil || w.depth > 0 || ctx == varying ||
		sym.Class != forcelang.Shared || sym.Storage == forcelang.Parameter {
		return
	}
	lv := w.exprLevel(t.Expr)
	if len(t.Target.Subs) == 0 {
		if refersTo(t.Expr, t.Target.Sym) {
			w.find(ReplicatedUpdate, t.Pos(), t.Target.Name)
		} else if lv == varying {
			w.find(ReplicatedValues, t.Pos(), t.Target.Name)
		}
		return
	}
	for _, s := range t.Target.Subs {
		if w.exprLevel(s) == varying {
			return
		}
	}
	if lv == varying {
		w.find(ReplicatedElement, t.Pos(), t.Target.Name)
	}
}
