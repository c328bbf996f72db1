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
// execution.  The footprint of every parallel body is kept for both.
//
// A walker's state is one dense vector per unit (env).  Its snapshots — IF
// arms, scopes, Pcase blocks, fixpoint rounds — and inline callees' vectors
// nest strictly: all come off one stack of cells, the Flow's arena.

import (
	"fmt"
	"slices"
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
type uniformity uint8

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

	entries    map[*forcelang.ParDo]env
	sums       map[*forcelang.Stmt]*Summary // footprints of the loop and subroutine bodies walked, by first slot
	collective map[*forcelang.Subroutine]bool

	arena []cell                  // the walkers' vectors and snapshots, a stack
	loops []loopRange             // the enclosing constant-bounds DO loops, innermost last
	path  []*forcelang.Subroutine // the subroutines on the current inline path
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

// cell is what the walk knows of one name: its level and, for a private
// INTEGER scalar, whether it holds a known constant and which.
type cell struct {
	lv    uniformity
	known bool
	val   int64
}

// env is a unit's environment: a cell per private, then per parameter of
// either class (which may alias a caller's private), in the checker's
// order — private scalars by Slot, private arrays by Slot, parameters by
// Param.  A walker holds one, and a DOALL's entry one joined over the
// walks that reach it (a private none assigned holds its initial value,
// the same everywhere; nil cells: no walk reached it).
type env struct {
	cells          []cell
	arrays, params int               // the first cell of the private arrays, of the parameters
	zero           *forcelang.Symbol // a name read as 0 whatever its cell (zeroReachable), or nil
}

// at is d's cell, nil for a name the unit does not track.
func (e *env) at(d *forcelang.Symbol) *cell {
	switch d.Storage {
	case forcelang.PrivateScalar:
		return &e.cells[d.Slot]
	case forcelang.PrivateArray:
		return &e.cells[e.arrays+d.Slot]
	case forcelang.Parameter:
		return &e.cells[e.params+d.Param]
	}
	return nil
}

// value is the constant the scalar d is known to hold (nil e: none).
func (e *env) value(d *forcelang.Symbol) (int64, bool) {
	if e == nil || e.cells == nil || d == e.zero {
		return 0, e != nil && d == e.zero
	}
	if c := e.at(d); c != nil && c.known {
		return c.val, true
	}
	return 0, false
}

// uniform reports whether the private sym holds one value in every process
// at the entry.
func (e *env) uniform(sym *forcelang.Symbol) bool {
	return e.cells != nil && sym.Role != forcelang.RoleIdent && e.at(sym).lv == uniform
}

// join merges the cells src into dst: levels join, and a constant stays
// known only where both hold the same one.
func join(dst, src []cell) {
	for i, c := range src {
		d := &dst[i]
		d.lv = d.lv.join(c.lv)
		d.known = d.known && c.known && d.val == c.val
	}
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
	fl := &Flow{entries: map[*forcelang.ParDo]env{}, sums: map[*forcelang.Stmt]*Summary{},
		collective: map[*forcelang.Subroutine]bool{}}
	// Room for a few snapshots of the main unit; a deeper nest grows it.
	fl.arena = make([]cell, 0, 4*len(prog.Scope.Own()))
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
	fl.unit(prog.Scope, prog.Body, nil)
	for _, sub := range prog.Subs {
		fl.unit(sub.Scope, sub.Body, sub)
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

// push takes n zeroed cells off the arena (still valid if a later push
// moves it), pop gives back the last taken.
func (fl *Flow) push(n int) []cell {
	k := len(fl.arena)
	fl.arena = append(fl.arena, make([]cell, n)...)
	return fl.arena[k:len(fl.arena):len(fl.arena)]
}

func (fl *Flow) pop(s []cell) { fl.arena = fl.arena[:len(fl.arena)-len(s)] }

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

	env   env
	loops int // the unit's first entry of fl.loops

	depth int       // enclosing construct depth (replicated stores only at 0)
	mute  int       // >0: a callee a call-site finding covers, record no findings
	first firstIter // the DOALL body every run enters, outside a varying IF or nested loop in it
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

// newWalker starts a walk of the unit of scope sc, every name Uniform.
func newWalker(fl *Flow, sc *forcelang.Scope, sub *forcelang.Subroutine) walker {
	arrays := sc.Slots(forcelang.PrivateScalar)
	params := arrays + sc.Slots(forcelang.PrivateArray)
	return walker{fl: fl, sub: sub, loops: len(fl.loops),
		env: env{cells: fl.push(params + sc.Slots(forcelang.Parameter)), arrays: arrays, params: params}}
}

// unit walks one unit on its own: the main program, or a subroutine with
// its parameters Assumed — uniform if every caller passes uniform
// arguments, which is not known here.
func (fl *Flow) unit(sc *forcelang.Scope, body []forcelang.Stmt, sub *forcelang.Subroutine) {
	w := newWalker(fl, sc, sub)
	for _, p := range sc.Params() {
		w.env.at(p).lv = assumed
	}
	w.stmts(body, uniform)
	fl.pop(w.env.cells)
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
		join(e.cells, w.env.cells)
	} else {
		w.fl.entries[t] = env{cells: slices.Clone(w.env.cells), arrays: w.env.arrays, params: w.env.params}
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
		lv = w.env.at(r.Sym).lv
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
	for i := len(w.fl.loops) - 1; i >= w.loops; i-- {
		lr := w.fl.loops[i]
		if !lr.constOK {
			continue
		}
		sp := &Space{outer: lr.v, intScalar: func(r *forcelang.Ref) bool {
			_, ok := w.env.value(r.Sym)
			return ok
		}}
		ci, _, ok := sp.Coef(e)
		if !ok || ci == 0 {
			continue
		}
		// rest = e with the loop variable at zero.
		w.env.zero = lr.v
		rest, rok := constant[int64](e, &w.env)
		w.env.zero = nil
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
	if v, ok := constant[int64](div, &w.env); ok {
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
				if v, ok := constant[float64](t.Args[0], &w.env); ok && v < 0 {
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
	if v, ok := constant[int64](s, &w.env); ok && (v < 1 || v > int64(d.Dims[i])) {
		w.fault(line, ctx, s, &forcert.Err{Kind: forcert.BadSubscript, Dim: i + 1, Name: d.Name, S: v, N: int64(d.Dims[i])})
	}
}

// bind gives d, when tracked, level lv and no known constant.
func (w *walker) bind(d *forcelang.Symbol, lv uniformity) {
	if c := w.env.at(d); c != nil {
		c.lv, c.known = lv, false
	}
}

// setPrivate records a store's effect on the environment: the target
// takes level lv and, when it is a private and expr (nil for a value no
// expression gives: a reduction's, a consumed one) folds to an INTEGER
// constant, that constant.
func (w *walker) setPrivate(target *forcelang.Ref, expr forcelang.Expr, lv uniformity) {
	d := target.Sym
	c := w.env.at(d)
	if c == nil {
		return
	}
	if len(target.Subs) == 0 {
		v, ok := constant[int64](expr, &w.env)
		c.lv, c.val, c.known = lv, v, ok && d.Type == forcelang.TInt && d.Class == forcelang.Private
		return
	}
	// Array element: weak update — join subscript levels too, a varying
	// subscript leaves different elements per process.
	for _, s := range target.Subs {
		lv = lv.join(w.exprLevel(s))
	}
	c.lv = c.lv.join(lv)
}

// killWritten drops the constants a loop body (or a Pcase block) may
// overwrite, so in-body constant facts come only from the current
// iteration's own straight-line assignments.
func (w *walker) killWritten(body []forcelang.Stmt) {
	if !slices.ContainsFunc(w.env.cells, func(c cell) bool { return c.known }) {
		return // nothing to kill: no footprint taken
	}
	for _, acc := range w.fl.footprint(body).Accesses() {
		if c := w.env.at(acc.Sym); c != nil && acc.Written() {
			c.known = false
		}
	}
}

// save pushes a snapshot of the environment on the arena.
func (w *walker) save() []cell {
	s := w.fl.push(len(w.env.cells))
	copy(s, w.env.cells)
	return s
}

// leave ends a construct entered at snapshot pre: the environment becomes
// pre joined with what the construct left, and pre is popped.
func (w *walker) leave(pre []cell) {
	join(w.env.cells, pre)
	w.fl.pop(pre)
}

// fixpoint walks a loop body, once per round, until the levels stop rising.
// Every round starts from the join of all before it, so the levels only
// rise and the rounds end; there is no cap, as one cut short would leave
// the planner a level below the truth.  A round that rises takes its
// findings back; the last, which does not, keeps them and the environment
// it leaves — a further round would start from the same levels, with the
// body's constants killed either way.  cond, when non-nil, is the loop's
// condition: its level joins the body's context and is recomputed every
// round, since body writes can raise it.
func (w *walker) fixpoint(body []forcelang.Stmt, ctx uniformity, cond forcelang.Expr) {
	for {
		mark, before := len(w.fl.Findings), w.save()
		w.killWritten(body)
		w.stmts(body, ctx.join(w.exprLevel(cond)))
		risen := false
		for i, c := range before {
			risen = risen || w.env.cells[i].lv > c.lv
		}
		if !risen {
			w.fl.pop(before)
			return
		}
		w.leave(before)
		w.fl.Findings = w.fl.Findings[:mark]
	}
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
		if lr.step, sok = constant[int64](step, &w.env); sok && lr.step == 0 {
			w.fault(line, ctx, step, &forcert.Err{Kind: forcert.ZeroStep})
		}
	}
	lo, lok := constant[int64](from, &w.env)
	hi, hok := constant[int64](to, &w.env)
	lr.lo, lr.hi, lr.constOK = lo, hi, lok && hok && sok && lr.step != 0
	return lr
}

// stmtVisited sees every statement the walk visits (the walk-count test).
var stmtVisited = func(forcelang.Stmt) {}

func (w *walker) stmt(st forcelang.Stmt, ctx uniformity) {
	stmtVisited(st)
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
		pre := w.save()
		w.stmts(t.Then, cl)
		then := w.save()
		copy(w.env.cells, pre)
		w.stmts(t.Else, cl)
		w.leave(then)
		w.fl.pop(pre)
		w.first = first
	case *forcelang.SeqDo:
		lr := w.header(t.VarSym, t.From, t.To, t.Step, t.Pos(), ctx)
		blv := w.exprLevel(t.From).join(w.exprLevel(t.To)).join(w.exprLevel(t.Step)) // a nil Step is Uniform
		pre := w.save()
		w.bind(t.VarSym, blv.join(ctx))
		w.fl.loops = append(w.fl.loops, lr)
		w.fixpoint(t.Body, ctx.join(blv), nil)
		w.fl.loops = w.fl.loops[:len(w.fl.loops)-1]
		w.leave(pre)
	case *forcelang.WhileDo:
		pre := w.save()
		w.faultsExpr(t.Cond, ctx)
		w.fixpoint(t.Body, ctx, t.Cond)
		w.leave(pre)
	case *forcelang.ParDo:
		if ctx == varying { // spelled only when recorded
			w.collective(ctx, t.Pos(), t.Sched.String()+" DO")
		}
		outer := w.header(t.VarSym, t.From, t.To, t.Step, t.Pos(), ctx)
		pre, n := w.save(), len(w.fl.loops)
		w.bind(t.VarSym, varying)
		w.fl.loops = append(w.fl.loops, outer)
		first, runs := firstIter{outer: t.VarSym}, outer.runs()
		if in := t.Inner; in != nil {
			inner := w.header(in.VarSym, in.From, in.To, in.Step, t.Pos(), ctx)
			w.bind(in.VarSym, varying)
			w.fl.loops = append(w.fl.loops, inner)
			first.inner, runs = in.VarSym, runs && inner.runs()
		}
		// The footprint is kept for the planner and forcevet in any case.
		if first.sum = w.fl.footprint(t.Body); ctx != varying && runs {
			w.first = first
		}
		w.enter(t)
		w.depth++
		w.fixpoint(t.Body, varying, nil)
		w.depth--
		w.fl.loops = w.fl.loops[:n]
		w.leave(pre)
		// The loop variable's final value depends on the schedule.
		w.env.at(t.VarSym).lv = varying
	case *forcelang.BarrierStmt:
		w.collective(ctx, t.Pos(), "Barrier")
		// The section runs in exactly one process: its writes are
		// per-process facts, and a fault in it strikes one process while
		// the peers wait at the barrier.
		pre := w.save()
		w.depth++
		w.stmts(t.Section, varying)
		w.depth--
		w.leave(pre)
	case *forcelang.CriticalStmt:
		w.depth++
		w.stmts(t.Body, ctx)
		w.depth--
	case *forcelang.PcaseStmt:
		w.collective(ctx, t.Pos(), "Pcase")
		pre, merged := w.save(), w.save()
		for _, b := range t.Blocks {
			w.faultsExpr(b.Cond, ctx)
			copy(w.env.cells, pre)
			w.depth++
			w.stmts(b.Body, varying)
			w.depth--
			join(merged, w.env.cells)
		}
		copy(w.env.cells, merged)
		w.fl.pop(merged)
		w.fl.pop(pre)
		for _, b := range t.Blocks {
			w.killWritten(b.Body)
		}
	case *forcelang.AskforStmt:
		w.collective(ctx, t.Pos(), "Askfor")
		w.faultsExpr(t.Seed, ctx)
		pre, _ := w.save(), w.fl.footprint(t.Body) // forcevet reads it
		w.bind(t.VarSym, varying)
		w.depth++
		w.fixpoint(t.Body, varying, nil)
		w.depth--
		w.leave(pre)
		w.env.at(t.VarSym).lv = varying
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
	if slices.Contains(w.fl.path, sub) {
		// Recursion: assume every by-reference argument varies.
		for i := range t.Args {
			w.bind(t.Args[i].Sym, varying)
		}
		return
	}
	cw := newWalker(w.fl, sub.Scope, sub)
	cw.mute = w.mute
	if siteFound {
		// The call-site finding covers every collective in the callee;
		// walk it only for the levels.
		cw.mute++
	}
	params := sub.Scope.Params()
	for i, p := range params {
		cw.env.at(p).lv = w.refLevel(&t.Args[i])
	}
	w.fl.path = append(w.fl.path, sub)
	cw.stmts(sub.Body, ctx)
	w.fl.path = w.fl.path[:len(w.fl.path)-1]
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
		if c := w.env.at(arg.Sym); c != nil {
			lv := cw.env.at(p).lv
			for _, s := range arg.Subs {
				lv = lv.join(w.exprLevel(s))
			}
			c.lv, c.known = c.lv.join(lv), false
		}
	}
	w.fl.pop(cw.env.cells)
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
