package interp

// The chunk compiler: the SPMD-on-spans tier of the interpreter.  For a
// DOALL body the classifier (classify.go) approves, this pass emits a
// chunk closure executed once per scheduler span (core.DoAllChunked)
// instead of once per index:
//
//   - the loop index lives in a register-like local (kctx.i / kctx.j),
//     never re-stored through the frame per iteration; the frame slot
//     receives the last executed index when the chunk ends, matching
//     the per-iteration path's observable final value.
//   - uniform subexpressions are compiled by the ordinary closure
//     compiler and evaluated ONCE per construct execution into typed
//     slots; the iteration loop reads slots.  Only non-panicking
//     expressions hoist (no integer division, MOD or SQRT), so hoisting
//     can never surface an error a per-iteration run would not.
//   - shared scalars and shared-array elements are read and written
//     through the store's typed accessors (store.go): one atomic word
//     operation each, no boxed value, no lock.
//   - accumulator scalars (S = S + e, S = MAX(S, e), S = MIN(S, e))
//     accumulate into a private per-chunk slot and fold into the shared
//     cell with one atomic RMW at chunk end — an add for sums, a strict
//     compare-and-swap for extrema — before the construct's exit
//     barrier, so post-loop readers see the total.
//   - poison is checked once per span by the runtime and every 256
//     iterations inside the chunk, keeping PR 4's abort latency in the
//     milliseconds even for giant prescheduled spans.
//
// Compiled k-closures take the extra *kctx argument; otherwise they
// mirror compile.go case for case so both engines agree on evaluation
// order, coercions, bounds checks and error messages.

import (
	"math"
	"strings"
	"sync"

	"repro/internal/forcelang"
	"repro/internal/sched"
	"repro/internal/uniform"
)

// poisonEvery bounds how many chunk iterations run between poison
// checks (one atomic load each, amortized to noise at this interval).
const poisonEvery = 256

// kctx is the per-construct chunk context: the live loop indices, the
// hoisted uniform values and the private accumulator slots.
type kctx struct {
	i, j int64 // current loop index values
	uniI []int64
	uniR []float64
	uniB []bool
	accI []int64
	accR []float64
}

// accCell pairs one accumulator's shared cell with its fold operator,
// precomputed per construct so flush needs no plan lookups.
type accCell struct {
	cell *sharedScalar
	op   accOp
	real bool
}

// flush folds the accumulated contributions into their shared cells
// and re-seeds the slots; it must run before the construct's exit
// barrier.  Sum deltas fold with one atomic add; extremum partials
// fold with the strict compare-and-swap RMWs, so an identity-valued
// partial (a chunk that never ran the statement) never disturbs the
// cell.
func (kc *kctx) flush(accs []accCell) {
	for si, ac := range accs {
		switch {
		case ac.op == accSum:
			if d := kc.accI[si]; d != 0 {
				ac.cell.addInt(d)
				kc.accI[si] = 0
			}
		case ac.real:
			if ac.op == accMax {
				ac.cell.maxReal(kc.accR[si])
				kc.accR[si] = math.Inf(-1)
			} else {
				ac.cell.minReal(kc.accR[si])
				kc.accR[si] = math.Inf(1)
			}
		default:
			if ac.op == accMax {
				ac.cell.maxInt(kc.accI[si])
				kc.accI[si] = math.MinInt64
			} else {
				ac.cell.minInt(kc.accI[si])
				kc.accI[si] = math.MaxInt64
			}
		}
	}
}

type (
	kstmtFn func(pr *cproc, fr *frame, kc *kctx)
	kvalFn  func(pr *cproc, fr *frame, kc *kctx) value
	kintFn  func(pr *cproc, fr *frame, kc *kctx) int64
	krealFn func(pr *cproc, fr *frame, kc *kctx) float64
	kboolFn func(pr *cproc, fr *frame, kc *kctx) bool
)

func runKBody(body []kstmtFn, pr *cproc, fr *frame, kc *kctx) {
	for _, st := range body {
		st(pr, fr, kc)
	}
}

// kcompiler compiles statements and expressions against a chunk plan.
type kcompiler struct {
	c    *compiler
	lay  *unitLayout
	plan *chunkPlan
}

// tryChunkParDo compiles t as a chunked DOALL, or returns nil when the
// chunk tier is off, an iteration-level trace is requested, or the
// classifier finds the body unsafe — the caller then emits the
// per-iteration path.
func (c *compiler) tryChunkParDo(t *forcelang.ParDo, lay *unitLayout) stmtFn {
	if c.in.cfg.Exec != ExecChunked {
		return nil
	}
	if c.in.cfg.Trace != nil {
		// Chunk execution emits no per-iteration LoopIter events; keep
		// traced runs on the per-iteration path so validation sees the
		// edges it expects.
		return nil
	}
	plan, reason := classifyParDo(c.res.prog, t, lay)
	if reason != "" {
		c.partitionLog(t, "not chunk-compiled:", reason)
		return nil
	}
	c.partitionLog(t, plan.cyclicWhy, plan.cyclicName)
	return c.chunkParDo(t, lay, plan, false, plan.cyclicWhy == "")
}

// partitionLog narrates, through the FuseLog sink, how a prescheduled
// DOALL is dealt: in blocks (why == "") or cyclically, and why.
func (c *compiler) partitionLog(t *forcelang.ParDo, why, name string) {
	switch {
	case c.in.cfg.FuseLog == nil || t.Sched != forcelang.Presched:
	case why == "":
		c.fuseLogf("line %d: DOALL partition=block", t.Pos())
	default:
		c.fuseLogf("line %d: DOALL partition=cyclic (%s)", t.Pos(), strings.TrimSpace(why+" "+name))
	}
}

// cyclicLast is the last ordinal of 0..n-1 the cyclic deal hands process
// pid (< n) of np.  A block-dealt chunk leaves the loop variable at that
// ordinal's index, so its value after the loop is partition-independent.
func cyclicLast(pid, np, n int) int { return pid + (n-1-pid)/np*np }

// chunkParDo compiles the chunk-tier execution of t against its plan.
// When open is true the construct is emitted as a member of a fused
// region: spans run through DoAllChunkedOpen and no exit barrier is
// executed — the caller must close the region with a FusedJoin on every
// process.  block deals a prescheduled loop in contiguous blocks instead
// of cyclically; callers pass it only when plan.cyclicWhy == "" (for a
// fused region, every member's).  Chunk contexts are recycled through a
// per-site pool: a construct inside a sequential loop executes many
// times per run, and every execution would otherwise reallocate the
// context and its slot slices.  A context is returned to the pool only
// on normal completion (flushed accumulators), so a poisoned unwind
// simply abandons it.
func (c *compiler) chunkParDo(t *forcelang.ParDo, lay *unitLayout, plan *chunkPlan, open, block bool) stmtFn {
	k := &kcompiler{c: c, lay: lay, plan: plan}
	body := k.stmts(t.Body)
	accCells := make([]accCell, len(plan.accSyms))
	for i, rec := range plan.accSyms {
		accCells[i] = accCell{cell: c.in.scalar(rec.sym.unit, rec.sym.slot), op: rec.op, real: rec.real}
	}
	fromF, toF, stepF := c.cInt(t.From, lay), c.cInt(t.To, lay), c.stepFn(t.Step, lay)
	storeVar := c.intVarStore(t.Var, lay, t.Pos())
	line := t.From.Pos()
	note := noteStr("DOALL", t.Pos())
	kind := c.in.cfg.Selfsched
	switch {
	case t.Sched != forcelang.Presched:
		block = false
	case block:
		kind = sched.PreschedBlock
	default:
		kind = sched.PreschedCyclic
	}
	pool := &sync.Pool{New: func() any { return newKctx(plan) }}

	if t.Inner == nil {
		return func(pr *cproc, fr *frame) {
			pr.p.Note(note)
			from, to := fromF(pr, fr), toF(pr, fr)
			step := stepF(pr, fr)
			if step == 0 {
				panic(rtErrf(line, "loop step is zero"))
			}
			r := sched.Range{Start: int(from), Last: int(to), Incr: int(step)}
			kc := pool.Get().(*kctx)
			evalUniforms(plan, pr, fr, kc)
			base, incr := int64(r.Start), int64(r.Incr)
			chunkFn := func(lo, hi, stride int) {
				cnt := hi - lo
				if cnt <= 0 {
					return
				}
				if stride > 1 {
					cnt = (cnt + stride - 1) / stride
				}
				i := base + int64(lo)*incr
				di := int64(stride) * incr
				ctr := 0
				for x := 0; x < cnt; x++ {
					kc.i = i
					runKBody(body, pr, fr, kc)
					i += di
					if ctr++; ctr == poisonEvery {
						ctr = 0
						pr.p.Check()
					}
				}
				last := i - di
				if block {
					last = base + int64(cyclicLast(pr.p.ID(), pr.p.NP(), r.Count()))*incr
				}
				storeVar(pr, fr, last)
				kc.flush(accCells)
			}
			if open {
				pr.p.DoAllChunkedOpen(kind, r, chunkFn)
			} else {
				pr.p.DoAllChunked(kind, r, chunkFn)
			}
			pool.Put(kc)
		}
	}
	if open {
		panic(compileErrf("line %d: internal: two-index DOALL as fused member", t.Pos()))
	}

	ifromF, itoF, istepF := c.cInt(t.Inner.From, lay), c.cInt(t.Inner.To, lay), c.stepFn(t.Inner.Step, lay)
	storeInner := c.intVarStore(t.Inner.Var, lay, t.Pos())
	iline := t.Inner.From.Pos()
	return func(pr *cproc, fr *frame) {
		pr.p.Note(note)
		from, to := fromF(pr, fr), toF(pr, fr)
		step := stepF(pr, fr)
		if step == 0 {
			panic(rtErrf(line, "loop step is zero"))
		}
		ifrom, ito := ifromF(pr, fr), itoF(pr, fr)
		istep := istepF(pr, fr)
		if istep == 0 {
			panic(rtErrf(iline, "loop step is zero"))
		}
		r := sched.Range{Start: int(from), Last: int(to), Incr: int(step)}
		r2 := sched.Range{Start: int(ifrom), Last: int(ito), Incr: int(istep)}
		kc := pool.Get().(*kctx)
		evalUniforms(plan, pr, fr, kc)
		n2 := r2.Count()
		chunkFn := func(lo, hi, stride int) {
			if hi <= lo {
				return
			}
			ctr := 0
			var li, lj int64
			for kk := lo; kk < hi; kk += stride {
				li, lj = int64(r.Index(kk/n2)), int64(r2.Index(kk%n2))
				kc.i, kc.j = li, lj
				runKBody(body, pr, fr, kc)
				if ctr++; ctr == poisonEvery {
					ctr = 0
					pr.p.Check()
				}
			}
			if block {
				kk := cyclicLast(pr.p.ID(), pr.p.NP(), r.Count()*n2)
				li, lj = int64(r.Index(kk/n2)), int64(r2.Index(kk%n2))
			}
			storeVar(pr, fr, li)
			storeInner(pr, fr, lj)
			kc.flush(accCells)
		}
		pr.p.DoAll2Chunked(kind, r, r2, chunkFn)
		pool.Put(kc)
	}
}

func newKctx(plan *chunkPlan) *kctx {
	kc := &kctx{
		uniI: make([]int64, len(plan.uniInt)),
		uniR: make([]float64, len(plan.uniReal)),
		uniB: make([]bool, len(plan.uniBool)),
		accI: make([]int64, len(plan.accSyms)),
		accR: make([]float64, len(plan.accSyms)),
	}
	seedAccs(plan.accSyms, kc)
	return kc
}

// seedAccs installs each accumulator's fold identity: 0 for sums,
// MinInt64 / -Inf for MAX, MaxInt64 / +Inf for MIN.
func seedAccs(recs []accRec, kc *kctx) {
	for si, rec := range recs {
		switch {
		case rec.op == accSum:
			kc.accI[si] = 0
		case rec.real && rec.op == accMax:
			kc.accR[si] = math.Inf(-1)
		case rec.real:
			kc.accR[si] = math.Inf(1)
		case rec.op == accMax:
			kc.accI[si] = math.MinInt64
		default:
			kc.accI[si] = math.MaxInt64
		}
	}
}

// evalUniforms runs the hoisted prologue: every uniform subexpression
// is evaluated once per construct execution.  All hoisted expressions
// are non-panicking by construction, so running them even when this
// process draws zero iterations cannot surface a spurious error.
func evalUniforms(plan *chunkPlan, pr *cproc, fr *frame, kc *kctx) {
	for si, ev := range plan.uniInt {
		kc.uniI[si] = ev(pr, fr)
	}
	for si, ev := range plan.uniReal {
		kc.uniR[si] = ev(pr, fr)
	}
	for si, ev := range plan.uniBool {
		kc.uniB[si] = ev(pr, fr)
	}
}

// --- statements --------------------------------------------------------

func (k *kcompiler) stmts(list []forcelang.Stmt) []kstmtFn {
	out := make([]kstmtFn, len(list))
	for i, st := range list {
		out[i] = k.stmt(st)
	}
	return out
}

func (k *kcompiler) stmt(st forcelang.Stmt) kstmtFn {
	switch t := st.(type) {
	case *forcelang.Assign:
		return k.assign(t)
	case *forcelang.If:
		cond := k.kBool(t.Cond)
		then := k.stmts(t.Then)
		els := k.stmts(t.Else)
		return func(pr *cproc, fr *frame, kc *kctx) {
			if cond(pr, fr, kc) {
				runKBody(then, pr, fr, kc)
			} else {
				runKBody(els, pr, fr, kc)
			}
		}
	case *forcelang.SeqDo:
		fromF, toF := k.kInt(t.From), k.kInt(t.To)
		stepF := k.kStep(t.Step)
		sym := k.lay.lookup(t.Var, t.Pos())
		slot := sym.slot // classifier guarantees scPrivate
		body := k.stmts(t.Body)
		line := t.From.Pos()
		return func(pr *cproc, fr *frame, kc *kctx) {
			from, to := fromF(pr, fr, kc), toF(pr, fr, kc)
			step := stepF(pr, fr, kc)
			if step == 0 {
				panic(rtErrf(line, "loop step is zero"))
			}
			for i := from; (step > 0 && i <= to) || (step < 0 && i >= to); i += step {
				fr.priv[slot] = intVal(i)
				runKBody(body, pr, fr, kc)
			}
		}
	default:
		panic(compileErrf("line %d: internal: %T reached the chunk compiler", st.Pos(), st))
	}
}

func (k *kcompiler) assign(t *forcelang.Assign) kstmtFn {
	sym := k.lay.lookup(t.Target.Name, t.Pos())
	tt := sym.decl.Type
	if len(t.Target.Subs) == 0 {
		switch sym.class {
		case scPrivate:
			slot := sym.slot
			ev := k.kValAs(t.Expr, tt)
			return func(pr *cproc, fr *frame, kc *kctx) { fr.priv[slot] = ev(pr, fr, kc) }
		case scShared:
			cell := k.c.in.scalar(sym.unit, sym.slot)
			if si, isAcc := k.plan.accs[t.Target.Name]; isAcc {
				return k.accAssign(t, si)
			}
			switch tt {
			case forcelang.TInt:
				iv := k.kAsInt(t.Expr)
				return func(pr *cproc, fr *frame, kc *kctx) { cell.storeInt(iv(pr, fr, kc)) }
			case forcelang.TReal:
				rv := k.kReal(t.Expr)
				return func(pr *cproc, fr *frame, kc *kctx) { cell.storeReal(rv(pr, fr, kc)) }
			default:
				bv := k.kBool(t.Expr)
				return func(pr *cproc, fr *frame, kc *kctx) { cell.storeBool(bv(pr, fr, kc)) }
			}
		}
		panic(compileErrf("line %d: internal: chunked assignment to %s", t.Pos(), t.Target.Name))
	}
	off := k.kOffset(sym.decl.Dims, t.Target.Subs, t.Target.Name, t.Pos())
	switch sym.class {
	case scSharedArray:
		// The value is evaluated before the subscripts, as everywhere.
		arr := k.c.in.array(sym.unit, sym.slot)
		switch tt {
		case forcelang.TInt:
			iv := k.kAsInt(t.Expr)
			return func(pr *cproc, fr *frame, kc *kctx) {
				v := iv(pr, fr, kc)
				arr.storeInt(off(pr, fr, kc), v)
			}
		case forcelang.TReal:
			rv := k.kReal(t.Expr)
			return func(pr *cproc, fr *frame, kc *kctx) {
				v := rv(pr, fr, kc)
				arr.storeReal(off(pr, fr, kc), v)
			}
		default:
			bv := k.kBool(t.Expr)
			return func(pr *cproc, fr *frame, kc *kctx) {
				v := bv(pr, fr, kc)
				arr.storeBool(off(pr, fr, kc), v)
			}
		}
	case scPrivArray:
		slot := sym.slot
		ev := k.kValAs(t.Expr, tt)
		return func(pr *cproc, fr *frame, kc *kctx) {
			v := ev(pr, fr, kc)
			fr.arrs[slot].data[off(pr, fr, kc)] = v
		}
	}
	panic(compileErrf("line %d: internal: chunked array assignment to %s", t.Pos(), t.Target.Name))
}

// accAssign compiles one accumulator statement into its private-slot
// update.  The extremum update replaces the partial only on a strict
// compare, the exact test MAX(S, e) / MIN(S, e) performs per
// iteration — so NaN contributions are dropped and a +0.0 never
// replaces a -0.0, matching the per-iteration path bit for bit.
func (k *kcompiler) accAssign(t *forcelang.Assign, si int) kstmtFn {
	rec := k.plan.accSyms[si]
	if rec.op == accSum {
		delta, neg, ok := uniform.AccumDelta(t.Target.Name, t.Expr)
		if !ok {
			panic(compileErrf("line %d: internal: accumulator shape lost for %s", t.Pos(), t.Target.Name))
		}
		dv := k.kInt(delta)
		if neg {
			return func(pr *cproc, fr *frame, kc *kctx) { kc.accI[si] -= dv(pr, fr, kc) }
		}
		return func(pr *cproc, fr *frame, kc *kctx) { kc.accI[si] += dv(pr, fr, kc) }
	}
	arg, isMax, ok := uniform.AccumMinMax(t.Target.Name, t.Expr)
	if !ok {
		panic(compileErrf("line %d: internal: accumulator shape lost for %s", t.Pos(), t.Target.Name))
	}
	if rec.real {
		av := k.kReal(arg)
		if isMax {
			return func(pr *cproc, fr *frame, kc *kctx) {
				if v := av(pr, fr, kc); v > kc.accR[si] {
					kc.accR[si] = v
				}
			}
		}
		return func(pr *cproc, fr *frame, kc *kctx) {
			if v := av(pr, fr, kc); v < kc.accR[si] {
				kc.accR[si] = v
			}
		}
	}
	av := k.kInt(arg)
	if isMax {
		return func(pr *cproc, fr *frame, kc *kctx) {
			if v := av(pr, fr, kc); v > kc.accI[si] {
				kc.accI[si] = v
			}
		}
	}
	return func(pr *cproc, fr *frame, kc *kctx) {
		if v := av(pr, fr, kc); v < kc.accI[si] {
			kc.accI[si] = v
		}
	}
}

func (k *kcompiler) kStep(step forcelang.Expr) kintFn {
	if step == nil {
		return func(pr *cproc, fr *frame, kc *kctx) int64 { return 1 }
	}
	return k.kInt(step)
}

// kOffset mirrors offsetFn against the chunk context.
func (k *kcompiler) kOffset(dims []int, subs []forcelang.Expr, name string, line int) func(pr *cproc, fr *frame, kc *kctx) int {
	if len(subs) != len(dims) {
		panic(compileErrf("line %d: %s: %d subscripts for %d dims", line, name, len(subs), len(dims)))
	}
	fns := k.kIntFns(subs)
	if len(dims) == 1 {
		d0, s0 := dims[0], fns[0]
		return func(pr *cproc, fr *frame, kc *kctx) int {
			s := s0(pr, fr, kc)
			if s < 1 || s > int64(d0) {
				panic(rtErrf(line, "subscript 1 of %s out of range: %d not in [1,%d]", name, s, d0))
			}
			return int(s - 1)
		}
	}
	return func(pr *cproc, fr *frame, kc *kctx) int {
		return flatOffset(dims, evalKSubs(fns, pr, fr, kc), name, line)
	}
}

func (k *kcompiler) kIntFns(exprs []forcelang.Expr) []kintFn {
	out := make([]kintFn, len(exprs))
	for i, e := range exprs {
		out[i] = k.kInt(e)
	}
	return out
}

func evalKSubs(fns []kintFn, pr *cproc, fr *frame, kc *kctx) []int64 {
	out := make([]int64, len(fns))
	for i, f := range fns {
		out[i] = f(pr, fr, kc)
	}
	return out
}

// --- uniform hoisting --------------------------------------------------

// hoistable reports whether e is uniform (no loop index, no written
// name, no parameter, no subscripted reference) AND non-panicking (no
// integer division, integer MOD or SQRT), so it may be evaluated once
// per construct by the ordinary compiler.
func (k *kcompiler) hoistable(e forcelang.Expr) bool {
	switch t := e.(type) {
	case *forcelang.IntLit, *forcelang.RealLit, *forcelang.BoolLit:
		return true
	case *forcelang.Ref:
		if len(t.Subs) > 0 {
			return false
		}
		if t.Name == k.plan.outer || (k.plan.inner != "" && t.Name == k.plan.inner) {
			return false
		}
		if k.plan.written[t.Name] {
			return false
		}
		sym, ok := k.lay.syms[t.Name]
		if !ok {
			return false
		}
		return sym.class == scPrivate || sym.class == scShared
	case *forcelang.Un:
		return k.hoistable(t.X)
	case *forcelang.Bin:
		if t.Op == forcelang.OpDiv && k.c.typ(e, k.lay) != forcelang.TReal {
			return false // integer division panics on zero
		}
		return k.hoistable(t.L) && k.hoistable(t.R)
	case *forcelang.Intrinsic:
		switch t.Name {
		case "SQRT":
			return false
		case "MOD":
			if k.c.typ(e, k.lay) != forcelang.TReal {
				return false
			}
		}
		for _, a := range t.Args {
			if !k.hoistable(a) {
				return false
			}
		}
		return true
	}
	return false
}

// hoistWorthwhile screens out expressions whose per-iteration cost is
// already a single local load: literals and private scalar reads.
func (k *kcompiler) hoistWorthwhile(e forcelang.Expr) bool {
	switch t := e.(type) {
	case *forcelang.IntLit, *forcelang.RealLit, *forcelang.BoolLit:
		return false
	case *forcelang.Ref:
		if sym, ok := k.lay.syms[t.Name]; ok && sym.class == scPrivate {
			return false
		}
	}
	return true
}

func (k *kcompiler) hoistInt(e forcelang.Expr) kintFn {
	if !k.hoistable(e) || !k.hoistWorthwhile(e) {
		return nil
	}
	slot := len(k.plan.uniInt)
	k.plan.uniInt = append(k.plan.uniInt, k.c.cInt(e, k.lay))
	return func(pr *cproc, fr *frame, kc *kctx) int64 { return kc.uniI[slot] }
}

func (k *kcompiler) hoistReal(e forcelang.Expr) krealFn {
	if !k.hoistable(e) || !k.hoistWorthwhile(e) {
		return nil
	}
	slot := len(k.plan.uniReal)
	k.plan.uniReal = append(k.plan.uniReal, k.c.cReal(e, k.lay))
	return func(pr *cproc, fr *frame, kc *kctx) float64 { return kc.uniR[slot] }
}

func (k *kcompiler) hoistBool(e forcelang.Expr) kboolFn {
	if !k.hoistable(e) || !k.hoistWorthwhile(e) {
		return nil
	}
	slot := len(k.plan.uniBool)
	k.plan.uniBool = append(k.plan.uniBool, k.c.cBool(e, k.lay))
	return func(pr *cproc, fr *frame, kc *kctx) bool { return kc.uniB[slot] }
}

// --- expressions -------------------------------------------------------

// kValAs mirrors valAs: a boxed value of the wanted type.
func (k *kcompiler) kValAs(e forcelang.Expr, want forcelang.Type) kvalFn {
	switch want {
	case forcelang.TInt:
		iv := k.kAsInt(e)
		return func(pr *cproc, fr *frame, kc *kctx) value { return intVal(iv(pr, fr, kc)) }
	case forcelang.TReal:
		rv := k.kReal(e)
		return func(pr *cproc, fr *frame, kc *kctx) value { return realVal(rv(pr, fr, kc)) }
	default:
		bv := k.kBool(e)
		return func(pr *cproc, fr *frame, kc *kctx) value { return boolVal(bv(pr, fr, kc)) }
	}
}

// kAsInt mirrors asInt: truncate statically REAL expressions.
func (k *kcompiler) kAsInt(e forcelang.Expr) kintFn {
	if k.c.typ(e, k.lay) == forcelang.TInt {
		return k.kInt(e)
	}
	rv := k.kReal(e)
	return func(pr *cproc, fr *frame, kc *kctx) int64 { return int64(rv(pr, fr, kc)) }
}

// kInt mirrors cInt with the loop indices read from the chunk context
// and uniform subexpressions hoisted.
func (k *kcompiler) kInt(e forcelang.Expr) kintFn {
	if fn := k.hoistInt(e); fn != nil {
		return fn
	}
	switch t := e.(type) {
	case *forcelang.IntLit:
		v := t.Value
		return func(pr *cproc, fr *frame, kc *kctx) int64 { return v }
	case *forcelang.Ref:
		return k.kRefInt(t)
	case *forcelang.Un:
		x := k.kInt(t.X)
		return func(pr *cproc, fr *frame, kc *kctx) int64 { return -x(pr, fr, kc) }
	case *forcelang.Bin:
		l, r := k.kInt(t.L), k.kInt(t.R)
		switch t.Op {
		case forcelang.OpAdd:
			return func(pr *cproc, fr *frame, kc *kctx) int64 { return l(pr, fr, kc) + r(pr, fr, kc) }
		case forcelang.OpSub:
			return func(pr *cproc, fr *frame, kc *kctx) int64 { return l(pr, fr, kc) - r(pr, fr, kc) }
		case forcelang.OpMul:
			return func(pr *cproc, fr *frame, kc *kctx) int64 { return l(pr, fr, kc) * r(pr, fr, kc) }
		case forcelang.OpDiv:
			line := t.Pos()
			return func(pr *cproc, fr *frame, kc *kctx) int64 {
				rv := r(pr, fr, kc)
				if rv == 0 {
					panic(rtErrf(line, "integer division by zero"))
				}
				return l(pr, fr, kc) / rv
			}
		}
	case *forcelang.Intrinsic:
		return k.kIntrinsicInt(t)
	}
	panic(compileErrf("line %d: internal: %T is not an INTEGER expression", e.Pos(), e))
}

func (k *kcompiler) kRefInt(t *forcelang.Ref) kintFn {
	if len(t.Subs) == 0 {
		if t.Name == k.plan.outer {
			return func(pr *cproc, fr *frame, kc *kctx) int64 { return kc.i }
		}
		if k.plan.inner != "" && t.Name == k.plan.inner {
			return func(pr *cproc, fr *frame, kc *kctx) int64 { return kc.j }
		}
		sym := k.lay.lookup(t.Name, t.Pos())
		switch sym.class {
		case scPrivate:
			slot := sym.slot
			return func(pr *cproc, fr *frame, kc *kctx) int64 { return fr.priv[slot].i }
		case scShared:
			cell := k.c.in.scalar(sym.unit, sym.slot)
			return func(pr *cproc, fr *frame, kc *kctx) int64 { return cell.loadInt() }
		}
	}
	if arr, off := k.kSharedElem(t); arr != nil {
		return func(pr *cproc, fr *frame, kc *kctx) int64 { return arr.loadInt(off(pr, fr, kc)) }
	}
	lv := k.kRefLoad(t)
	return func(pr *cproc, fr *frame, kc *kctx) int64 { return lv(pr, fr, kc).i }
}

// kSharedElem resolves a subscripted shared-array reference to its array
// and offset closure, for the typed element loads; a nil array means t
// is anything else.
func (k *kcompiler) kSharedElem(t *forcelang.Ref) (*sharedArray, func(pr *cproc, fr *frame, kc *kctx) int) {
	sym := k.lay.lookup(t.Name, t.Pos())
	if len(t.Subs) == 0 || sym.class != scSharedArray {
		return nil, nil
	}
	return k.c.in.array(sym.unit, sym.slot), k.kOffset(sym.decl.Dims, t.Subs, t.Name, t.Pos())
}

// kRefLoad mirrors refLoad: the boxed load of any reference but a
// shared-array element, which every caller loads typed (kSharedElem).
func (k *kcompiler) kRefLoad(t *forcelang.Ref) kvalFn {
	sym := k.lay.lookup(t.Name, t.Pos())
	if len(t.Subs) == 0 {
		switch sym.class {
		case scPrivate:
			slot := sym.slot
			return func(pr *cproc, fr *frame, kc *kctx) value { return fr.priv[slot] }
		case scShared:
			cell := k.c.in.scalar(sym.unit, sym.slot)
			return func(pr *cproc, fr *frame, kc *kctx) value { return cell.load() }
		case scParam:
			idx := sym.slot
			return func(pr *cproc, fr *frame, kc *kctx) value { return fr.params[idx].sc.load() }
		}
		panic(compileErrf("line %d: %s cannot be read directly", t.Pos(), t.Name))
	}
	switch sym.class {
	case scPrivArray:
		slot := sym.slot
		off := k.kOffset(sym.decl.Dims, t.Subs, t.Name, t.Pos())
		return func(pr *cproc, fr *frame, kc *kctx) value { return fr.arrs[slot].data[off(pr, fr, kc)] }
	case scParam:
		idx := sym.slot
		subs := k.kIntFns(t.Subs)
		name, line := t.Name, t.Pos()
		return func(pr *cproc, fr *frame, kc *kctx) value {
			ar := fr.params[idx].ar
			return ar.load(flatOffset(ar.shape(), evalKSubs(subs, pr, fr, kc), name, line))
		}
	}
	panic(compileErrf("line %d: %s is not an array", t.Pos(), t.Name))
}

func (k *kcompiler) kIntrinsicInt(t *forcelang.Intrinsic) kintFn {
	switch t.Name {
	case "ABS":
		x := k.kInt(t.Args[0])
		return func(pr *cproc, fr *frame, kc *kctx) int64 {
			v := x(pr, fr, kc)
			if v < 0 {
				return -v
			}
			return v
		}
	case "INT":
		rv := k.kReal(t.Args[0])
		return func(pr *cproc, fr *frame, kc *kctx) int64 { return int64(rv(pr, fr, kc)) }
	case "NINT":
		rv := k.kReal(t.Args[0])
		return func(pr *cproc, fr *frame, kc *kctx) int64 { return int64(math.Round(rv(pr, fr, kc))) }
	case "MOD":
		l, r := k.kInt(t.Args[0]), k.kInt(t.Args[1])
		line := t.Pos()
		return func(pr *cproc, fr *frame, kc *kctx) int64 {
			rv := r(pr, fr, kc)
			if rv == 0 {
				panic(rtErrf(line, "MOD by zero"))
			}
			return l(pr, fr, kc) % rv
		}
	case "MIN", "MAX":
		args := k.kIntFns(t.Args)
		min := t.Name == "MIN"
		return func(pr *cproc, fr *frame, kc *kctx) int64 {
			best := args[0](pr, fr, kc)
			for _, a := range args[1:] {
				x := a(pr, fr, kc)
				if (min && x < best) || (!min && x > best) {
					best = x
				}
			}
			return best
		}
	}
	panic(compileErrf("line %d: internal: %s is not an INTEGER intrinsic", t.Pos(), t.Name))
}

// kReal mirrors cReal.
func (k *kcompiler) kReal(e forcelang.Expr) krealFn {
	if fn := k.hoistReal(e); fn != nil {
		return fn
	}
	if k.c.typ(e, k.lay) == forcelang.TInt {
		iv := k.kInt(e)
		return func(pr *cproc, fr *frame, kc *kctx) float64 { return float64(iv(pr, fr, kc)) }
	}
	switch t := e.(type) {
	case *forcelang.RealLit:
		v := t.Value
		return func(pr *cproc, fr *frame, kc *kctx) float64 { return v }
	case *forcelang.Ref:
		return k.kRefReal(t)
	case *forcelang.Un:
		x := k.kReal(t.X)
		return func(pr *cproc, fr *frame, kc *kctx) float64 { return -x(pr, fr, kc) }
	case *forcelang.Bin:
		l, r := k.kReal(t.L), k.kReal(t.R)
		switch t.Op {
		case forcelang.OpAdd:
			return func(pr *cproc, fr *frame, kc *kctx) float64 { return l(pr, fr, kc) + r(pr, fr, kc) }
		case forcelang.OpSub:
			return func(pr *cproc, fr *frame, kc *kctx) float64 { return l(pr, fr, kc) - r(pr, fr, kc) }
		case forcelang.OpMul:
			return func(pr *cproc, fr *frame, kc *kctx) float64 { return l(pr, fr, kc) * r(pr, fr, kc) }
		case forcelang.OpDiv:
			return func(pr *cproc, fr *frame, kc *kctx) float64 { return l(pr, fr, kc) / r(pr, fr, kc) }
		}
	case *forcelang.Intrinsic:
		return k.kIntrinsicReal(t)
	}
	panic(compileErrf("line %d: internal: %T is not a REAL expression", e.Pos(), e))
}

func (k *kcompiler) kRefReal(t *forcelang.Ref) krealFn {
	if len(t.Subs) == 0 {
		sym := k.lay.lookup(t.Name, t.Pos())
		switch sym.class {
		case scPrivate:
			slot := sym.slot
			return func(pr *cproc, fr *frame, kc *kctx) float64 { return fr.priv[slot].r }
		case scShared:
			cell := k.c.in.scalar(sym.unit, sym.slot)
			return func(pr *cproc, fr *frame, kc *kctx) float64 { return cell.loadReal() }
		}
	}
	if arr, off := k.kSharedElem(t); arr != nil {
		return func(pr *cproc, fr *frame, kc *kctx) float64 { return arr.loadReal(off(pr, fr, kc)) }
	}
	lv := k.kRefLoad(t)
	return func(pr *cproc, fr *frame, kc *kctx) float64 { return lv(pr, fr, kc).r }
}

func (k *kcompiler) kIntrinsicReal(t *forcelang.Intrinsic) krealFn {
	switch t.Name {
	case "ABS":
		x := k.kReal(t.Args[0])
		return func(pr *cproc, fr *frame, kc *kctx) float64 { return math.Abs(x(pr, fr, kc)) }
	case "SQRT":
		x := k.kReal(t.Args[0])
		line := t.Pos()
		return func(pr *cproc, fr *frame, kc *kctx) float64 {
			v := x(pr, fr, kc)
			if v < 0 {
				panic(rtErrf(line, "SQRT of negative value %g", v))
			}
			return math.Sqrt(v)
		}
	case "REAL":
		return k.kReal(t.Args[0])
	case "MOD":
		l, r := k.kReal(t.Args[0]), k.kReal(t.Args[1])
		return func(pr *cproc, fr *frame, kc *kctx) float64 { return math.Mod(l(pr, fr, kc), r(pr, fr, kc)) }
	case "MIN", "MAX":
		args := make([]krealFn, len(t.Args))
		for i, a := range t.Args {
			args[i] = k.kReal(a)
		}
		min := t.Name == "MIN"
		return func(pr *cproc, fr *frame, kc *kctx) float64 {
			best := args[0](pr, fr, kc)
			for _, a := range args[1:] {
				x := a(pr, fr, kc)
				if (min && x < best) || (!min && x > best) {
					best = x
				}
			}
			return best
		}
	}
	panic(compileErrf("line %d: internal: %s is not a REAL intrinsic", t.Pos(), t.Name))
}

// kBool mirrors cBool.
func (k *kcompiler) kBool(e forcelang.Expr) kboolFn {
	if fn := k.hoistBool(e); fn != nil {
		return fn
	}
	switch t := e.(type) {
	case *forcelang.BoolLit:
		v := t.Value
		return func(pr *cproc, fr *frame, kc *kctx) bool { return v }
	case *forcelang.Ref:
		if len(t.Subs) == 0 {
			sym := k.lay.lookup(t.Name, t.Pos())
			switch sym.class {
			case scPrivate:
				slot := sym.slot
				return func(pr *cproc, fr *frame, kc *kctx) bool { return fr.priv[slot].b }
			case scShared:
				cell := k.c.in.scalar(sym.unit, sym.slot)
				return func(pr *cproc, fr *frame, kc *kctx) bool { return cell.loadBool() }
			}
		}
		if arr, off := k.kSharedElem(t); arr != nil {
			return func(pr *cproc, fr *frame, kc *kctx) bool { return arr.loadBool(off(pr, fr, kc)) }
		}
		lv := k.kRefLoad(t)
		return func(pr *cproc, fr *frame, kc *kctx) bool { return lv(pr, fr, kc).b }
	case *forcelang.Un:
		x := k.kBool(t.X)
		return func(pr *cproc, fr *frame, kc *kctx) bool { return !x(pr, fr, kc) }
	case *forcelang.Bin:
		return k.kBinBool(t)
	}
	panic(compileErrf("line %d: internal: %T is not a LOGICAL expression", e.Pos(), e))
}

func (k *kcompiler) kBinBool(t *forcelang.Bin) kboolFn {
	switch t.Op {
	case forcelang.OpAnd:
		l, r := k.kBool(t.L), k.kBool(t.R)
		return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) && r(pr, fr, kc) }
	case forcelang.OpOr:
		l, r := k.kBool(t.L), k.kBool(t.R)
		return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) || r(pr, fr, kc) }
	}
	lt, rt := k.c.typ(t.L, k.lay), k.c.typ(t.R, k.lay)
	if lt == forcelang.TLogical || rt == forcelang.TLogical {
		l, r := k.kBool(t.L), k.kBool(t.R)
		if t.Op == forcelang.OpNe {
			return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) != r(pr, fr, kc) }
		}
		return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) == r(pr, fr, kc) }
	}
	if lt == forcelang.TInt && rt == forcelang.TInt {
		l, r := k.kInt(t.L), k.kInt(t.R)
		switch t.Op {
		case forcelang.OpEq:
			return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) == r(pr, fr, kc) }
		case forcelang.OpNe:
			return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) != r(pr, fr, kc) }
		case forcelang.OpLt:
			return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) < r(pr, fr, kc) }
		case forcelang.OpLe:
			return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) <= r(pr, fr, kc) }
		case forcelang.OpGt:
			return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) > r(pr, fr, kc) }
		default:
			return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) >= r(pr, fr, kc) }
		}
	}
	// Same three-way-compare formulation as binBool, so all engines
	// agree on every input (NaN included).
	l, r := k.kReal(t.L), k.kReal(t.R)
	switch t.Op {
	case forcelang.OpEq:
		return func(pr *cproc, fr *frame, kc *kctx) bool {
			lv, rv := l(pr, fr, kc), r(pr, fr, kc)
			return !(lv < rv) && !(lv > rv)
		}
	case forcelang.OpNe:
		return func(pr *cproc, fr *frame, kc *kctx) bool {
			lv, rv := l(pr, fr, kc), r(pr, fr, kc)
			return lv < rv || lv > rv
		}
	case forcelang.OpLt:
		return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) < r(pr, fr, kc) }
	case forcelang.OpLe:
		return func(pr *cproc, fr *frame, kc *kctx) bool { return !(l(pr, fr, kc) > r(pr, fr, kc)) }
	case forcelang.OpGt:
		return func(pr *cproc, fr *frame, kc *kctx) bool { return l(pr, fr, kc) > r(pr, fr, kc) }
	default:
		return func(pr *cproc, fr *frame, kc *kctx) bool { return !(l(pr, fr, kc) < r(pr, fr, kc)) }
	}
}
