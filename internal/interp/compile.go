package interp

// The closure compiler: one walk over the checked, slot-resolved AST
// produces a tree of typed Go closures over index-addressed frames.  All
// name resolution, type dispatch and operator dispatch happens here,
// once; execution then runs straight-line closure calls — private
// variables are direct slot reads, shared scalars and shared array
// elements single typed atomic-word operations (store.go), never boxed.
// Expressions whose static type the checker knows compile to unboxed
// int64/float64/bool closures, so arithmetic never touches the boxed
// value representation between a load and a store.
//
// This is the only closure compiler: a chunk-compiled DOALL body
// (chunk.go) is compiled by these same functions in chunk mode — the
// plan field set — which is consulted at exactly four places: the
// scalar-reference leaf (refInt: a loop index reads the chunk context),
// the entry of cInt/cReal/cBool (uniform hoisting), assign (folded
// accumulators) and the shared-array element leaves (spanSite: a
// reference affine in the index is range-checked per span).  Arithmetic,
// coercion, intrinsic, divide/MOD-by-zero and subscript-range semantics
// therefore exist once for planned and plan-less bodies.  An element-wise
// body (plan.Plan.PerIter == "") compiles to its block form instead
// (block.go): the operations that cannot raise, a block of indices at a
// time, over the same hoisted closures and span-checked sites.

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/asyncvar"
	"repro/internal/core"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/plan"
	"repro/internal/sched"
)

// compileErr carries a compilation failure (an unchecked or internally
// inconsistent program) out of the recursive compiler.
type compileErr struct{ error }

func compileErrf(format string, args ...any) compileErr {
	return compileErr{fmt.Errorf("interp: compile: "+format, args...)}
}

type compiler struct {
	in    *cinstance
	res   *resolution
	units map[string]*cunit
	// plan is non-nil only while a classified DOALL body is being
	// compiled (chunkParDo): chunk mode.
	plan *chunkPlan
	// tg is this back end as the planner (internal/plan) sees it.
	tg plan.Target
}

// newCompiler returns a compiler for the instance's program with every
// unit's shell created, so Call statements (including recursive ones)
// link to their target by pointer before its body exists.
func newCompiler(in *cinstance) *compiler {
	c := &compiler{in: in, res: in.res, units: map[string]*cunit{}, tg: planTarget(in.cfg)}
	c.tg.Prog = in.res.prog
	for name, lay := range in.res.units {
		cu := &cunit{lay: lay}
		if len(lay.privArrs) == 0 {
			cu.pool = &sync.Pool{New: func() any { return &frame{} }}
		}
		c.units[name] = cu
	}
	return c
}

// compileProgram compiles every unit of the instance's program.
func compileProgram(in *cinstance) (cp *cprogram, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileErr); ok {
				err = ce.error
				return
			}
			panic(r)
		}
	}()
	c := newCompiler(in)
	// Main first, then the subroutines in source order — the order the
	// Go emitter walks them — so the decisions rendered into FuseLog
	// read the same from run to run and from tier to tier.
	c.units[""].body = c.stmts(in.res.prog.Body)
	for _, sub := range in.res.prog.Subs {
		c.units[sub.Name].body = c.stmts(sub.Body)
	}
	return &cprogram{units: c.units, main: c.units[""]}, nil
}

// --- statements --------------------------------------------------------

// stmts compiles a statement list — the one driver: internal/plan lowers
// it step by step (Target.Next, at the level Config selected) and each
// node, rendered into FuseLog, compiles to one closure, a Loop or a
// Region through fuse.go.
func (c *compiler) stmts(list []forcelang.Stmt) []stmtFn {
	out := make([]stmtFn, 0, len(list))
	for i := 0; i < len(list); {
		nd, n := c.tg.Next(list, i)
		if lg := c.in.cfg.FuseLog; lg != nil {
			nd.Narrate(lg)
		}
		switch {
		case nd.Stmt != nil:
			out = append(out, c.stmt(nd.Stmt))
		case nd.Loop.Do != nil:
			out = append(out, c.loop(nd.Loop))
		default:
			out = append(out, c.region(nd.Region))
		}
		i += n
	}
	return out
}

func runBody(body []stmtFn, pr *cproc, fr *frame) {
	for _, st := range body {
		st(pr, fr)
	}
}

func (c *compiler) stmt(st forcelang.Stmt) stmtFn {
	switch t := st.(type) {
	case *forcelang.Assign:
		return c.assign(t)
	case *forcelang.If:
		cond := c.cBool(t.Cond)
		then := c.stmts(t.Then)
		els := c.stmts(t.Else)
		return func(pr *cproc, fr *frame) {
			if cond(pr, fr) {
				runBody(then, pr, fr)
			} else {
				runBody(els, pr, fr)
			}
		}
	case *forcelang.SeqDo:
		rangeF := c.rangeFn(t.From, t.To, t.Step)
		storeVar := c.intVarStore(t.VarSym, t.Pos())
		body := c.stmts(t.Body)
		return func(pr *cproc, fr *frame) {
			r := rangeF(pr, fr)
			for i, step, n := forcert.Do(int64(r.Start), int64(r.Last), int64(r.Incr)); n > 0; i, n = i+step, n-1 {
				// A poisoned force must not wait out a long sequential
				// loop.
				if n%core.PoisonEvery == 0 {
					pr.p.Check()
				}
				storeVar(pr, fr, i)
				runBody(body, pr, fr)
			}
		}
	case *forcelang.WhileDo:
		cond := c.cBool(t.Cond)
		body := c.stmts(t.Body)
		return func(pr *cproc, fr *frame) {
			for cond(pr, fr) {
				// A poisoned force must not wait out a (possibly
				// unbounded) sequential loop; -timeout relies on this
				// check.
				pr.p.Check()
				runBody(body, pr, fr)
			}
		}
	case *forcelang.BarrierStmt:
		section := c.stmts(t.Section)
		note := noteStr("Barrier", t.Pos())
		return func(pr *cproc, fr *frame) {
			pr.p.Note(note)
			pr.p.BarrierSection(pr.sectionFn(section, fr))
		}
	case *forcelang.CriticalStmt:
		body := c.stmts(t.Body)
		name := t.Name
		note := noteStr("Critical "+name, t.Pos())
		return func(pr *cproc, fr *frame) {
			pr.p.Note(note)
			pr.p.Critical(name, func() { runBody(body, pr, fr) })
		}
	case *forcelang.PcaseStmt:
		type cblock struct {
			cond boolFn
			body []stmtFn
		}
		blocks := make([]cblock, len(t.Blocks))
		for i, b := range t.Blocks {
			if b.Cond != nil {
				blocks[i].cond = c.cBool(b.Cond)
			}
			blocks[i].body = c.stmts(b.Body)
		}
		selfsched := t.Selfsched
		note := noteStr("Pcase", t.Pos())
		return func(pr *cproc, fr *frame) {
			pr.p.Note(note)
			bl := make([]core.Block, len(blocks))
			for i := range blocks {
				b := blocks[i]
				var cond func() bool
				if b.cond != nil {
					cond = func() bool { return b.cond(pr, fr) }
				}
				bl[i] = core.Block{Cond: cond, Body: func() { runBody(b.body, pr, fr) }}
			}
			if selfsched {
				pr.p.SelfschedPcase(bl...)
			} else {
				pr.p.Pcase(bl...)
			}
		}
	case *forcelang.AskforStmt:
		seedF := c.cInt(t.Seed)
		storeVar := c.intVarStore(t.VarSym, t.Pos())
		body := c.stmts(t.Body)
		note := noteStr("Askfor", t.Pos())
		return func(pr *cproc, fr *frame) {
			pr.p.Note(note)
			seed := seedF(pr, fr)
			pr.p.Askfor([]any{seed}, func(task any, put func(any)) {
				storeVar(pr, fr, task.(int64))
				pr.puts = append(pr.puts, put)
				defer func() { pr.puts = pr.puts[:len(pr.puts)-1] }()
				runBody(body, pr, fr)
			})
		}
	case *forcelang.PutStmt:
		ev := c.cInt(t.Expr)
		line := t.Pos()
		return func(pr *cproc, fr *frame) {
			if len(pr.puts) == 0 {
				panic(forcert.Errorf(line, "Put outside an Askfor body"))
			}
			pr.puts[len(pr.puts)-1](ev(pr, fr))
		}
	case *forcelang.ProduceStmt:
		cellF := c.asyncCellFn(t.Sym, t.Sub, t.Pos())
		ev := c.val(t.Expr)
		note := noteStr("Produce "+t.Var, t.Pos())
		return func(pr *cproc, fr *frame) {
			asyncOp(pr.p, cellF(pr, fr), asyncvar.OpProduce, ev(pr, fr), note)
		}
	case *forcelang.ConsumeStmt:
		return c.asyncRead(asyncvar.OpConsume, t.Sym, t.Sub, &t.Target, noteStr("Consume "+t.Var, t.Pos()), t.Pos())
	case *forcelang.CopyStmt:
		return c.asyncRead(asyncvar.OpCopy, t.Sym, t.Sub, &t.Target, noteStr("Copy "+t.Var, t.Pos()), t.Pos())
	case *forcelang.VoidStmt:
		cellF := c.asyncCellFn(t.Sym, t.Sub, t.Pos())
		note := noteStr("Void "+t.Var, t.Pos())
		return func(pr *cproc, fr *frame) {
			cell := cellF(pr, fr)
			pr.p.Note(note) // Void can block on a racing consumer
			pr.p.WithSite(&core.AsyncSiteLabel, cell.Void)
		}
	case *forcelang.PrintStmt:
		return c.print(t)
	case *forcelang.CallStmt:
		return c.call(t)
	default:
		panic(compileErrf("line %d: unhandled statement %T", st.Pos(), st))
	}
}

// noteStr builds the location note the -timeout blocked-process report
// (core.Force.Blocked) shows for one potentially blocking statement,
// precomputed at compile time so the per-execution cost is a single
// atomic pointer store.
func noteStr(kind string, line int) *string {
	s := fmt.Sprintf("%s, line %d", kind, line)
	return &s
}

// rangeFn compiles a loop header (a nil step means 1) to the closure
// evaluating its range — from, to, step, in that order — and rejecting
// a zero step.
func (c *compiler) rangeFn(from, to, step forcelang.Expr) func(pr *cproc, fr *frame) sched.Range {
	fromF, toF := c.cInt(from), c.cInt(to)
	stepF := func(pr *cproc, fr *frame) int64 { return 1 }
	if step != nil {
		stepF = c.cInt(step)
	}
	line := from.Pos()
	return func(pr *cproc, fr *frame) sched.Range {
		return sched.Range{Start: int(fromF(pr, fr)), Last: int(toF(pr, fr)), Incr: int(forcert.Step(line, stepF(pr, fr)))}
	}
}

// intVarStore compiles the store of a raw int64 into a scalar INTEGER
// variable (loop indices, Askfor task variables).
func (c *compiler) intVarStore(sym *forcelang.Symbol, line int) func(pr *cproc, fr *frame, i int64) {
	switch sym.Storage {
	case scPrivate:
		slot := sym.Slot
		return func(pr *cproc, fr *frame, i int64) { fr.priv[slot] = intVal(i) }
	case scShared:
		cell := c.in.scalar(sym)
		return func(pr *cproc, fr *frame, i int64) { cell.store(intVal(i)) }
	case scParam:
		idx := sym.Param
		return func(pr *cproc, fr *frame, i int64) { fr.params[idx].sc.store(intVal(i)) }
	default:
		panic(compileErrf("line %d: %s is not a scalar variable", line, sym.Name))
	}
}

// asyncCellFn compiles the cell address of an async statement: the entry
// is resolved at compile time, only the optional subscript at run time.
func (c *compiler) asyncCellFn(sym *forcelang.Symbol, sub forcelang.Expr, line int) func(pr *cproc, fr *frame) asyncCell {
	if sym.Storage != scAsync {
		panic(compileErrf("line %d: %s is not an Async variable", line, sym.Name))
	}
	e := c.in.asyncs[sym.Unit][sym.Slot]
	name := sym.Name
	if sub == nil {
		return func(pr *cproc, fr *frame) asyncCell { return e.at(0, false, name, line) }
	}
	sf := c.cInt(sub)
	return func(pr *cproc, fr *frame) asyncCell { return e.at(sf(pr, fr), true, name, line) }
}

// asyncRead compiles a Consume or Copy statement.
func (c *compiler) asyncRead(op asyncvar.Op, sym *forcelang.Symbol, sub forcelang.Expr, target *forcelang.Ref, note *string, line int) stmtFn {
	cellF := c.asyncCellFn(sym, sub, line)
	store, tt := c.refStore(target)
	return func(pr *cproc, fr *frame) {
		// The cell holds the variable's declared type; a target of the
		// other one converts here, the one conversion a statement makes.
		store(pr, fr, coerce(asyncOp(pr.p, cellF(pr, fr), op, value{}, note), tt, line))
	}
}

func (c *compiler) print(t *forcelang.PrintStmt) stmtFn {
	type part struct {
		lit string
		ev  valFn
	}
	parts := make([]part, len(t.Items))
	for i, item := range t.Items {
		if s, ok := item.(*forcelang.StrLit); ok {
			parts[i] = part{lit: s.Value}
			continue
		}
		ev := c.val(item)
		parts[i] = part{ev: ev}
	}
	return func(pr *cproc, fr *frame) {
		var line forcert.Line
		for i := range parts {
			if parts[i].ev == nil {
				line.Str(parts[i].lit)
			} else {
				parts[i].ev(pr, fr).printTo(&line)
			}
		}
		pr.in.out.writeLine(line.String())
	}
}

func (c *compiler) call(t *forcelang.CallStmt) stmtFn {
	target, ok := c.units[t.Name]
	if !ok {
		panic(compileErrf("line %d: call of undefined subroutine %s", t.Pos(), t.Name))
	}
	binders := make([]func(pr *cproc, fr *frame) cparam, len(t.Args))
	for i := range t.Args {
		binders[i] = c.bindArg(&t.Args[i], target.lay.params[i])
	}
	return func(pr *cproc, fr *frame) {
		nf := target.getFrame(int64(pr.p.ID()))
		for i, bind := range binders {
			nf.params[i] = bind(pr, fr)
		}
		runBody(target.body, pr, nf)
		target.putFrame(nf)
	}
}

// bindArg compiles the binding of one call argument to the callee's
// parameter: a scalar alias (shared cell, caller-private slot, array
// element, or a forwarded parameter) or a whole-array alias.
func (c *compiler) bindArg(arg *forcelang.Ref, param *forcelang.Symbol) func(pr *cproc, fr *frame) cparam {
	sym := arg.Sym
	if len(arg.Subs) > 0 {
		// Element argument: alias the single cell.
		switch sym.Storage {
		case scSharedArray:
			arr := c.in.array(sym)
			off := c.offsetFn(sym.Dims, arg.Subs, arg.Name, arg.Pos())
			return func(pr *cproc, fr *frame) cparam {
				return cparam{sc: elemRef{a: arr, off: off(pr, fr)}}
			}
		case scPrivArray:
			slot := sym.Slot
			off := c.offsetFn(sym.Dims, arg.Subs, arg.Name, arg.Pos())
			return func(pr *cproc, fr *frame) cparam {
				return cparam{sc: elemRef{a: fr.arrs[slot], off: off(pr, fr)}}
			}
		case scParam:
			idx := sym.Param
			subs := c.intFns(arg.Subs)
			name, line := arg.Name, arg.Pos()
			return func(pr *cproc, fr *frame) cparam {
				ar := fr.params[idx].ar
				off := forcert.Offset(line, name, ar.shape(), evalSubs(subs, pr, fr))
				return cparam{sc: elemRef{a: ar, off: off}}
			}
		}
		panic(compileErrf("line %d: %s is not an array", arg.Pos(), arg.Name))
	}
	if len(param.Dims) > 0 {
		// Whole-array argument.
		switch sym.Storage {
		case scSharedArray:
			arr := c.in.array(sym)
			return func(pr *cproc, fr *frame) cparam { return cparam{ar: arr} }
		case scPrivArray:
			slot := sym.Slot
			return func(pr *cproc, fr *frame) cparam { return cparam{ar: fr.arrs[slot]} }
		case scParam:
			idx := sym.Param
			return func(pr *cproc, fr *frame) cparam { return cparam{ar: fr.params[idx].ar} }
		}
		panic(compileErrf("line %d: argument %s is not an array", arg.Pos(), arg.Name))
	}
	// Scalar argument.
	switch sym.Storage {
	case scShared:
		cell := c.in.scalar(sym)
		return func(pr *cproc, fr *frame) cparam { return cparam{sc: cell} }
	case scPrivate:
		slot := sym.Slot
		return func(pr *cproc, fr *frame) cparam { return cparam{sc: privPtr{p: &fr.priv[slot]}} }
	case scParam:
		idx := sym.Param
		return func(pr *cproc, fr *frame) cparam { return cparam{sc: fr.params[idx].sc} }
	}
	panic(compileErrf("line %d: argument %s is not a scalar variable", arg.Pos(), arg.Name))
}

// --- variable access ----------------------------------------------------

// assign compiles an assignment.  The value has the target's declared
// type (the checker placed any conversion) and is evaluated before the
// subscripts, as everywhere.  A shared accumulate (plan.MatchAccum) is
// one indivisible update: folded into the chunk context when the plan
// says so, an atomic RMW on the cell otherwise.  Shared words and private
// scalars take typed stores; every other target the boxed refStore.
func (c *compiler) assign(t *forcelang.Assign) stmtFn {
	sym := t.Target.Sym
	tt := sym.Type
	switch {
	case sym.Storage == scPrivate && len(t.Target.Subs) == 0:
		slot := sym.Slot
		switch tt {
		case forcelang.TInt:
			iv := c.cInt(t.Expr)
			return func(pr *cproc, fr *frame) { fr.priv[slot] = intVal(iv(pr, fr)) }
		case forcelang.TReal:
			rv := c.cReal(t.Expr)
			return func(pr *cproc, fr *frame) { fr.priv[slot] = realVal(rv(pr, fr)) }
		default:
			bv := c.cBool(t.Expr)
			return func(pr *cproc, fr *frame) { fr.priv[slot] = boolVal(bv(pr, fr)) }
		}
	case sym.Storage == scShared && len(t.Target.Subs) == 0:
		cell := c.in.scalar(sym)
		if acc, ok := plan.MatchAccum(t); ok {
			if c.plan != nil {
				if si, folded := c.plan.Fold(sym); folded {
					return c.accAssign(acc, si)
				}
			}
			return c.atomicAccum(acc, cell)
		}
		switch tt {
		case forcelang.TInt:
			iv := c.cInt(t.Expr)
			return func(pr *cproc, fr *frame) { cell.storeInt(iv(pr, fr)) }
		case forcelang.TReal:
			rv := c.cReal(t.Expr)
			return func(pr *cproc, fr *frame) { cell.storeReal(rv(pr, fr)) }
		default:
			bv := c.cBool(t.Expr)
			return func(pr *cproc, fr *frame) { cell.storeBool(bv(pr, fr)) }
		}
	case sym.Storage == scSharedArray && len(t.Target.Subs) > 0:
		if data, k, site, ok := c.spanSite(&t.Target); ok {
			return c.spanStore(t, data, k, site)
		}
		arr := c.in.array(sym)
		off := c.offsetFn(sym.Dims, t.Target.Subs, t.Target.Name, t.Pos())
		switch tt {
		case forcelang.TInt:
			iv := c.cInt(t.Expr)
			return func(pr *cproc, fr *frame) {
				v := iv(pr, fr)
				arr.storeInt(off(pr, fr), v)
			}
		case forcelang.TReal:
			rv := c.cReal(t.Expr)
			return func(pr *cproc, fr *frame) {
				v := rv(pr, fr)
				arr.storeReal(off(pr, fr), v)
			}
		default:
			bv := c.cBool(t.Expr)
			return func(pr *cproc, fr *frame) {
				v := bv(pr, fr)
				arr.storeBool(off(pr, fr), v)
			}
		}
	}
	store, _ := c.refStore(&t.Target)
	ev := c.val(t.Expr)
	return func(pr *cproc, fr *frame) { store(pr, fr, ev(pr, fr)) }
}

// atomicAccum compiles a shared accumulate to the store's atomic RMW —
// the primitives kctx.flush folds with — so no update is ever lost,
// whichever path executes the statement.
func (c *compiler) atomicAccum(acc plan.Accum, cell *sharedScalar) stmtFn {
	switch {
	case acc.Op == plan.AccSum:
		dv := c.cInt(acc.Operand)
		if acc.Negate {
			return func(pr *cproc, fr *frame) { forcert.Add(&cell.bits, -dv(pr, fr)) }
		}
		return func(pr *cproc, fr *frame) { forcert.Add(&cell.bits, dv(pr, fr)) }
	case acc.Real:
		av := c.cReal(acc.Operand)
		if acc.Op == plan.AccMax {
			return func(pr *cproc, fr *frame) { forcert.MaxReal(&cell.bits, av(pr, fr)) }
		}
		return func(pr *cproc, fr *frame) { forcert.MinReal(&cell.bits, av(pr, fr)) }
	}
	av := c.cInt(acc.Operand)
	if acc.Op == plan.AccMax {
		return func(pr *cproc, fr *frame) { forcert.MaxInt(&cell.bits, av(pr, fr)) }
	}
	return func(pr *cproc, fr *frame) { forcert.MinInt(&cell.bits, av(pr, fr)) }
}

// refStore compiles a boxed store into an lvalue (reduction, Consume and
// Copy targets, and the assignment targets with no typed path),
// returning the store closure and the variable's declared type, which
// the stored value must have.
func (c *compiler) refStore(t *forcelang.Ref) (func(pr *cproc, fr *frame, v value), forcelang.Type) {
	sym := t.Sym
	tt := sym.Type
	if len(t.Subs) == 0 {
		switch sym.Storage {
		case scPrivate:
			slot := sym.Slot
			return func(pr *cproc, fr *frame, v value) { fr.priv[slot] = v }, tt
		case scShared:
			cell := c.in.scalar(sym)
			return func(pr *cproc, fr *frame, v value) { cell.store(v) }, tt
		case scParam:
			idx := sym.Param
			return func(pr *cproc, fr *frame, v value) { fr.params[idx].sc.store(v) }, tt
		}
		panic(compileErrf("line %d: cannot assign to %s", t.Pos(), t.Name))
	}
	switch sym.Storage {
	case scSharedArray:
		arr := c.in.array(sym)
		off := c.offsetFn(sym.Dims, t.Subs, t.Name, t.Pos())
		return func(pr *cproc, fr *frame, v value) { arr.store(off(pr, fr), v) }, tt
	case scPrivArray:
		slot := sym.Slot
		off := c.offsetFn(sym.Dims, t.Subs, t.Name, t.Pos())
		return func(pr *cproc, fr *frame, v value) { fr.arrs[slot].data[off(pr, fr)] = v }, tt
	case scParam:
		idx := sym.Param
		subs := c.intFns(t.Subs)
		name, line := t.Name, t.Pos()
		return func(pr *cproc, fr *frame, v value) {
			ar := fr.params[idx].ar
			ar.store(forcert.Offset(line, name, ar.shape(), evalSubs(subs, pr, fr)), v)
		}, tt
	}
	panic(compileErrf("line %d: %s is not an array", t.Pos(), t.Name))
}

// refLoad compiles the boxed load of the references the typed leaves
// (refInt, refReal, refBool) have no direct path for: parameters, whose
// storage is only known once a call binds it, and private array
// elements, which are stored boxed.
func (c *compiler) refLoad(t *forcelang.Ref) valFn {
	sym := t.Sym
	if len(t.Subs) == 0 {
		if sym.Storage == scParam {
			idx := sym.Param
			return func(pr *cproc, fr *frame) value { return fr.params[idx].sc.load() }
		}
		panic(compileErrf("line %d: %s cannot be read directly", t.Pos(), t.Name))
	}
	switch sym.Storage {
	case scPrivArray:
		slot := sym.Slot
		off := c.offsetFn(sym.Dims, t.Subs, t.Name, t.Pos())
		return func(pr *cproc, fr *frame) value { return fr.arrs[slot].data[off(pr, fr)] }
	case scParam:
		idx := sym.Param
		subs := c.intFns(t.Subs)
		name, line := t.Name, t.Pos()
		return func(pr *cproc, fr *frame) value {
			ar := fr.params[idx].ar
			return ar.load(forcert.Offset(line, name, ar.shape(), evalSubs(subs, pr, fr)))
		}
	}
	panic(compileErrf("line %d: %s is not an array", t.Pos(), t.Name))
}

// offsetFn compiles the flat offset of a subscripted reference against
// statically known dimensions, bounds-checking at run time.
func (c *compiler) offsetFn(dims []int, subs []forcelang.Expr, name string, line int) func(pr *cproc, fr *frame) int {
	if len(subs) != len(dims) {
		panic(compileErrf("line %d: %s: %d subscripts for %d dims", line, name, len(subs), len(dims)))
	}
	fns := c.intFns(subs)
	if len(dims) == 1 {
		d0, s0 := dims[0], fns[0]
		return func(pr *cproc, fr *frame) int { return forcert.Idx1(line, name, s0(pr, fr), d0) }
	}
	d0, d1, s0, s1 := dims[0], dims[1], fns[0], fns[1]
	return func(pr *cproc, fr *frame) int { return forcert.Idx2(line, name, s0(pr, fr), s1(pr, fr), d0, d1) }
}

func (c *compiler) intFns(exprs []forcelang.Expr) []intFn {
	out := make([]intFn, len(exprs))
	for i, e := range exprs {
		out[i] = c.cInt(e)
	}
	return out
}

func evalSubs(fns []intFn, pr *cproc, fr *frame) []int64 {
	out := make([]int64, len(fns))
	for i, f := range fns {
		out[i] = f(pr, fr)
	}
	return out
}

// --- expressions --------------------------------------------------------

// val compiles an expression to a boxed value closure of its own type
// (Print, Produce and the stores with no typed path): the checker has
// already made that type the one the value is used at.
func (c *compiler) val(e forcelang.Expr) valFn {
	switch e.Type() {
	case forcelang.TInt:
		iv := c.cInt(e)
		return func(pr *cproc, fr *frame) value { return intVal(iv(pr, fr)) }
	case forcelang.TReal:
		rv := c.cReal(e)
		return func(pr *cproc, fr *frame) value { return realVal(rv(pr, fr)) }
	default:
		bv := c.cBool(e)
		return func(pr *cproc, fr *frame) value { return boolVal(bv(pr, fr)) }
	}
}

// cInt compiles an INTEGER-typed expression to an unboxed int64 closure.
func (c *compiler) cInt(e forcelang.Expr) intFn {
	if fn := c.hoistInt(e); fn != nil {
		return fn
	}
	switch t := e.(type) {
	case *forcelang.IntLit:
		v := t.Value
		return func(pr *cproc, fr *frame) int64 { return v }
	case *forcelang.Ref:
		return c.refInt(t)
	case *forcelang.Un:
		x := c.cInt(t.X)
		return func(pr *cproc, fr *frame) int64 { return -x(pr, fr) }
	case *forcelang.Bin:
		l, r := c.cInt(t.L), c.cInt(t.R)
		switch t.Op {
		case forcelang.OpAdd:
			return func(pr *cproc, fr *frame) int64 { return l(pr, fr) + r(pr, fr) }
		case forcelang.OpSub:
			return func(pr *cproc, fr *frame) int64 { return l(pr, fr) - r(pr, fr) }
		case forcelang.OpMul:
			return func(pr *cproc, fr *frame) int64 { return l(pr, fr) * r(pr, fr) }
		case forcelang.OpDiv:
			line := t.Pos()
			return func(pr *cproc, fr *frame) int64 { return forcert.Div(line, l(pr, fr), r(pr, fr)) }
		}
	case *forcelang.Intrinsic:
		return c.intrinsicInt(t)
	}
	panic(compileErrf("line %d: internal: %T is not an INTEGER expression", e.Pos(), e))
}

// sharedElem resolves a subscripted shared-array reference to its array
// and offset closure, for the typed element loads; a nil array means t
// is anything else.
func (c *compiler) sharedElem(t *forcelang.Ref) (*sharedArray, func(pr *cproc, fr *frame) int) {
	sym := t.Sym
	if len(t.Subs) == 0 || sym.Storage != scSharedArray {
		return nil, nil
	}
	return c.in.array(sym), c.offsetFn(sym.Dims, t.Subs, t.Name, t.Pos())
}

// refInt compiles an INTEGER reference.  In chunk mode the DOALL's own
// indices (always private INTEGER scalars) read the chunk context, which
// the span loop advances instead of the frame slot.
func (c *compiler) refInt(t *forcelang.Ref) intFn {
	sym := t.Sym
	if len(t.Subs) == 0 {
		switch {
		case c.plan != nil && sym == c.plan.Outer:
			return func(pr *cproc, fr *frame) int64 { return pr.k.i }
		case c.plan != nil && sym == c.plan.Inner:
			return func(pr *cproc, fr *frame) int64 { return pr.k.j }
		case sym.Storage == scPrivate:
			slot := sym.Slot
			return func(pr *cproc, fr *frame) int64 { return fr.priv[slot].i }
		case sym.Storage == scShared:
			cell := c.in.scalar(sym)
			return func(pr *cproc, fr *frame) int64 { return cell.loadInt() }
		}
	}
	if data, k, site, ok := c.spanSite(t); ok {
		return func(pr *cproc, fr *frame) int64 { return int64(data[k*pr.k.i+pr.k.aff[site]].Load()) }
	}
	if arr, off := c.sharedElem(t); arr != nil {
		return func(pr *cproc, fr *frame) int64 { return arr.loadInt(off(pr, fr)) }
	}
	lv := c.refLoad(t)
	return func(pr *cproc, fr *frame) int64 { return lv(pr, fr).i }
}

func (c *compiler) intrinsicInt(t *forcelang.Intrinsic) intFn {
	switch t.Name {
	case "ABS":
		x := c.cInt(t.Args[0])
		return func(pr *cproc, fr *frame) int64 { return forcert.Abs(x(pr, fr)) }
	case "INT":
		// INT of an INTEGER is the identity, as in the walker.
		if t.Args[0].Type() == forcelang.TInt {
			return c.cInt(t.Args[0])
		}
		rv := c.cReal(t.Args[0])
		return func(pr *cproc, fr *frame) int64 { return int64(rv(pr, fr)) }
	case "NINT":
		rv := c.cReal(t.Args[0])
		return func(pr *cproc, fr *frame) int64 { return int64(math.Round(rv(pr, fr))) }
	case "MOD":
		l, r := c.cInt(t.Args[0]), c.cInt(t.Args[1])
		line := t.Pos()
		return func(pr *cproc, fr *frame) int64 { return forcert.ModInt(line, l(pr, fr), r(pr, fr)) }
	case "MIN", "MAX":
		args := c.intFns(t.Args)
		min := t.Name == "MIN"
		return func(pr *cproc, fr *frame) int64 {
			best := args[0](pr, fr)
			for _, a := range args[1:] {
				x := a(pr, fr)
				if (min && x < best) || (!min && x > best) {
					best = x
				}
			}
			return best
		}
	}
	panic(compileErrf("line %d: internal: %s is not an INTEGER intrinsic", t.Pos(), t.Name))
}

// cReal compiles a REAL-typed expression to an unboxed float64 closure.
func (c *compiler) cReal(e forcelang.Expr) realFn {
	if fn := c.hoistReal(e); fn != nil {
		return fn
	}
	switch t := e.(type) {
	case *forcelang.RealLit:
		v := t.Value
		return func(pr *cproc, fr *frame) float64 { return v }
	case *forcelang.Ref:
		return c.refReal(t)
	case *forcelang.Un:
		x := c.cReal(t.X)
		return func(pr *cproc, fr *frame) float64 { return -x(pr, fr) }
	case *forcelang.Bin:
		l, r := c.cReal(t.L), c.cReal(t.R)
		switch t.Op {
		case forcelang.OpAdd:
			return func(pr *cproc, fr *frame) float64 { return l(pr, fr) + r(pr, fr) }
		case forcelang.OpSub:
			return func(pr *cproc, fr *frame) float64 { return l(pr, fr) - r(pr, fr) }
		case forcelang.OpMul:
			return func(pr *cproc, fr *frame) float64 { return l(pr, fr) * r(pr, fr) }
		case forcelang.OpDiv:
			// IEEE semantics for real division, as in the tree walker.
			return func(pr *cproc, fr *frame) float64 { return l(pr, fr) / r(pr, fr) }
		}
	case *forcelang.Intrinsic:
		return c.intrinsicReal(t)
	}
	panic(compileErrf("line %d: internal: %T is not a REAL expression", e.Pos(), e))
}

func (c *compiler) refReal(t *forcelang.Ref) realFn {
	sym := t.Sym
	if len(t.Subs) == 0 {
		switch sym.Storage {
		case scPrivate:
			slot := sym.Slot
			return func(pr *cproc, fr *frame) float64 { return fr.priv[slot].r }
		case scShared:
			cell := c.in.scalar(sym)
			return func(pr *cproc, fr *frame) float64 { return cell.loadReal() }
		}
	}
	if data, k, site, ok := c.spanSite(t); ok {
		return func(pr *cproc, fr *frame) float64 {
			return math.Float64frombits(data[k*pr.k.i+pr.k.aff[site]].Load())
		}
	}
	if arr, off := c.sharedElem(t); arr != nil {
		return func(pr *cproc, fr *frame) float64 { return arr.loadReal(off(pr, fr)) }
	}
	lv := c.refLoad(t)
	return func(pr *cproc, fr *frame) float64 { return lv(pr, fr).r }
}

func (c *compiler) intrinsicReal(t *forcelang.Intrinsic) realFn {
	switch t.Name {
	case "ABS":
		x := c.cReal(t.Args[0])
		return func(pr *cproc, fr *frame) float64 { return forcert.Abs(x(pr, fr)) }
	case "SQRT":
		x := c.cReal(t.Args[0])
		line := t.Pos()
		return func(pr *cproc, fr *frame) float64 { return forcert.Sqrt(line, x(pr, fr)) }
	case "REAL":
		// REAL of a REAL is the identity, as in the walker.
		if t.Args[0].Type() == forcelang.TReal {
			return c.cReal(t.Args[0])
		}
		iv := c.cInt(t.Args[0])
		return func(pr *cproc, fr *frame) float64 { return float64(iv(pr, fr)) }
	case "MOD":
		l, r := c.cReal(t.Args[0]), c.cReal(t.Args[1])
		return func(pr *cproc, fr *frame) float64 { return forcert.ModReal(l(pr, fr), r(pr, fr)) }
	case "MIN", "MAX":
		args := make([]realFn, len(t.Args))
		for i, a := range t.Args {
			args[i] = c.cReal(a)
		}
		min := t.Name == "MIN"
		return func(pr *cproc, fr *frame) float64 {
			best := args[0](pr, fr)
			for _, a := range args[1:] {
				x := a(pr, fr)
				if (min && x < best) || (!min && x > best) {
					best = x
				}
			}
			return best
		}
	}
	panic(compileErrf("line %d: internal: %s is not a REAL intrinsic", t.Pos(), t.Name))
}

// cBool compiles a LOGICAL-typed expression to an unboxed bool closure.
func (c *compiler) cBool(e forcelang.Expr) boolFn {
	if fn := c.hoistBool(e); fn != nil {
		return fn
	}
	switch t := e.(type) {
	case *forcelang.BoolLit:
		v := t.Value
		return func(pr *cproc, fr *frame) bool { return v }
	case *forcelang.Ref:
		sym := t.Sym
		if len(t.Subs) == 0 {
			switch sym.Storage {
			case scPrivate:
				slot := sym.Slot
				return func(pr *cproc, fr *frame) bool { return fr.priv[slot].b }
			case scShared:
				cell := c.in.scalar(sym)
				return func(pr *cproc, fr *frame) bool { return cell.loadBool() }
			}
		}
		if data, k, site, ok := c.spanSite(t); ok {
			return func(pr *cproc, fr *frame) bool { return data[k*pr.k.i+pr.k.aff[site]].Load() != 0 }
		}
		if arr, off := c.sharedElem(t); arr != nil {
			return func(pr *cproc, fr *frame) bool { return arr.loadBool(off(pr, fr)) }
		}
		lv := c.refLoad(t)
		return func(pr *cproc, fr *frame) bool { return lv(pr, fr).b }
	case *forcelang.Un:
		x := c.cBool(t.X)
		return func(pr *cproc, fr *frame) bool { return !x(pr, fr) }
	case *forcelang.Bin:
		return c.binBool(t)
	}
	panic(compileErrf("line %d: internal: %T is not a LOGICAL expression", e.Pos(), e))
}

func (c *compiler) binBool(t *forcelang.Bin) boolFn {
	switch t.Op {
	case forcelang.OpAnd:
		l, r := c.cBool(t.L), c.cBool(t.R)
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) && r(pr, fr) }
	case forcelang.OpOr:
		l, r := c.cBool(t.L), c.cBool(t.R)
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) || r(pr, fr) }
	}
	// The checker gives both operands one type.
	switch t.L.Type() {
	case forcelang.TLogical:
		l, r := c.cBool(t.L), c.cBool(t.R)
		if t.Op == forcelang.OpNe {
			return func(pr *cproc, fr *frame) bool { return l(pr, fr) != r(pr, fr) }
		}
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) == r(pr, fr) }
	case forcelang.TInt:
		return relation(t.Op, c.cInt(t.L), c.cInt(t.R))
	}
	return relation(t.Op, c.cReal(t.L), c.cReal(t.R))
}

// relation compiles one relation with Go's operators, which on a REAL NaN
// make every relation but .NE. false, as IEEE and Fortran do (relate is
// the walker's).
func relation[T int64 | float64, F ~func(*cproc, *frame) T](op forcelang.BinOp, l, r F) boolFn {
	switch op {
	case forcelang.OpEq:
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) == r(pr, fr) }
	case forcelang.OpNe:
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) != r(pr, fr) }
	case forcelang.OpLt:
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) < r(pr, fr) }
	case forcelang.OpLe:
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) <= r(pr, fr) }
	case forcelang.OpGt:
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) > r(pr, fr) }
	default:
		return func(pr *cproc, fr *frame) bool { return l(pr, fr) >= r(pr, fr) }
	}
}
