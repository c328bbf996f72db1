package interp

// The chunk tier: the SPMD-on-spans execution of DOALL bodies.  There is
// one closure compiler (compile.go) and one way a DOALL runs: its body,
// once per index of every span core.DoAllChunked grants the process.  For
// a body the shared classifier (internal/plan) approves, the compiler
// runs in chunk mode — its plan field set while the body is compiled —
// which changes four things, all defined here:
//
//   - the loop index lives in the process's chunk context (cproc.k.i /
//     .j), never re-stored through the frame per iteration; the frame
//     slot receives the last executed index when the span ends, the
//     value the plan-less loop leaves there.
//   - uniform subexpressions the plan lets hoist (plan.Plan.Hoists) are
//     compiled with the plan cleared and evaluated ONCE per construct
//     execution into the context's typed slots; the iteration loop reads
//     slots.  Only expressions that cannot raise hoist, so hoisting can
//     never surface an error a per-iteration evaluation would not.
//   - accumulator scalars (S = S + e, S = MAX(S, e), S = MIN(S, e))
//     accumulate into a private per-span slot (accAssign) and fold into
//     the shared cell with one atomic RMW at span end — an add for
//     sums, a strict compare-and-swap for extrema — before the
//     construct's exit barrier, so post-loop readers see the total.
//   - an element reference the plan span-checks (plan.Plan.SpanCheck: a
//     shared array, every subscript ci·I + rest with a literal ci and a
//     rest of literals and INTEGER scalars the body never writes) is
//     checked per SPAN, not per iteration (spanSite): the rest is
//     evaluated once per construct execution, the indices at which every
//     such subscript is in range form one interval (forcert.Span, the
//     end-point test the Go emitter spells too), and a span whose first
//     and last index lie inside it — affine, hence in range between
//     them — runs the reference as ONE closure indexing
//     the array's words at K·i + R.  Any other span runs the checked
//     plan-less body (checkedBody, compiled on first need): the program
//     is about to raise a subscript error, or guards the reference with
//     an IF, and the ordinary per-iteration check decides which, at the
//     reference and after the iterations it always did.
//
// An element-wise body (the planner says which: plan.Plan.PerIter) compiles
// in chunk mode to its block form only (block.go): a span that passes the
// end-point test runs it statement at a time over blocks of indices, any
// other span the checked plan-less body.  Both decisions, and the counts
// forcerun -v narrates for them, are the plan's (plan.Loop.SpanChecked,
// rendered by plan.Node.Narrate): this file spells them, and decides none.
//
// A body with no plan compiles in ordinary mode and stores its index
// through the frame every iteration (chunkParDo).  Everything else —
// arithmetic, coercions, intrinsics, every other subscript, the typed
// atomic-word loads and stores, every runtime error — is the ordinary
// compiler's, so the two loops cannot disagree on it.  Poison is checked
// before every grant by the runtime and every core.PoisonEvery iterations
// inside one, keeping the abort latency in the milliseconds even for
// giant prescheduled spans.

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/plan"
	"repro/internal/sched"
)

// chunkPlan is the classifier's verdict for one DOALL, extended while
// its body is compiled in chunk mode with the hoisted uniform
// subexpressions: compiled with the plan cleared, evaluated once per
// construct execution and read from the typed slots of the process's
// chunk context inside the chunk loop (hoistInt/hoistReal/hoistBool) —
// and with the span-checked element references (spanSite).
type chunkPlan struct {
	*plan.Plan
	uniInt  []intFn
	uniReal []realFn
	uniBool []boolFn
	// subs holds the subscripts of the span-checked references, site by
	// site; sites counts those references.
	subs  []affSub
	sites int
	// nI and nR count the scratch buffers of each type an element-wise
	// body's block form fills (block.go).
	nI, nR int
	// checked is the plan-less body, for the spans that fail the
	// end-point test; most constructs never need it (checkedBody).
	once    sync.Once
	checked []stmtFn
}

// affSub is one subscript of a span-checked element reference, site: the
// literal coefficient of the loop index, the extent it must stay within,
// and the subscript itself compiled in chunk mode — which, evaluated at
// index 0, is the rest.
type affSub struct {
	site      int
	coef, ext int64
	sub       intFn
}

// kctx is a process's chunk context: the live loop indices, the hoisted
// uniform values, the private accumulator slots and the span-check state
// of the chunk-compiled construct it is executing.  It is embedded by
// value in cproc and its slices only ever grow, so a program with no
// chunk-compiled site allocates nothing for it.
type kctx struct {
	i, j int64 // current loop index values; i the first of a block's
	// b is the block state of an element-wise body (block.go), allocated
	// by the first span that runs one.  Behind a pointer so that cproc
	// keeps its size class: with these 72 bytes inline (280 -> 352) the
	// cold runs of forcemark's pipeline-ring, which never touches them,
	// read 15-20 % dearer at np=2.
	b    *blockCtx
	uniI []int64
	uniR []float64
	uniB []bool
	accI []int64
	accR []float64
	// aff holds, per span-checked reference, the 0-based word offset of
	// its element at index 0; ok the indices at which every such
	// reference is in range.
	aff []int64
	ok  forcert.Span
}

// accCell pairs one accumulator's shared cell with its fold operator,
// precomputed per construct so enter and flush need no plan lookups.
type accCell struct {
	cell *sharedScalar
	op   plan.AccOp
	real bool
}

// fit returns s resized to n elements, reallocating only to grow.
func fit[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// enter prepares the context for one execution of a chunk-compiled
// construct: slots sized to the plan, accumulators seeded, and the
// hoisted prologue run — every uniform subexpression and every
// span-checked reference's rest evaluated once.
// All hoisted expressions are non-panicking by construction, so running
// them even when this process draws zero iterations cannot surface a
// spurious error.
func (kc *kctx) enter(cp *chunkPlan, accs []accCell, pr *cproc, fr *frame) {
	kc.uniI = fit(kc.uniI, len(cp.uniInt))
	kc.uniR = fit(kc.uniR, len(cp.uniReal))
	kc.uniB = fit(kc.uniB, len(cp.uniBool))
	kc.accI = fit(kc.accI, len(accs))
	kc.accR = fit(kc.accR, len(accs))
	kc.seed(accs)
	for si, ev := range cp.uniInt {
		kc.uniI[si] = ev(pr, fr)
	}
	for si, ev := range cp.uniReal {
		kc.uniR[si] = ev(pr, fr)
	}
	for si, ev := range cp.uniBool {
		kc.uniB[si] = ev(pr, fr)
	}
	// The rests, after the uniform slots their subscripts may read.  A
	// decomposed subscript is built from +, - and * over literals, the
	// index and unwritten scalars: it cannot panic, and in wrapping
	// arithmetic its value at index i IS coef·i + its value at 0.
	kc.aff = fit(kc.aff, cp.sites)
	clear(kc.aff)
	kc.ok = forcert.AllIndices()
	kc.i = 0
	for _, sb := range cp.subs {
		rest := sb.sub(pr, fr)
		kc.ok.Narrow(sb.coef, rest, sb.ext)
		kc.aff[sb.site] = kc.aff[sb.site]*sb.ext + rest - 1 // row-major, as forcert.Idx2
	}
}

// seed installs each accumulator's fold identity: 0 for sums, MinInt64
// / -Inf for MAX, MaxInt64 / +Inf for MIN.
func (kc *kctx) seed(accs []accCell) {
	for si, ac := range accs {
		switch {
		case ac.op == plan.AccSum:
			kc.accI[si] = 0
		case ac.real && ac.op == plan.AccMax:
			kc.accR[si] = math.Inf(-1)
		case ac.real:
			kc.accR[si] = math.Inf(1)
		case ac.op == plan.AccMax:
			kc.accI[si] = math.MinInt64
		default:
			kc.accI[si] = math.MaxInt64
		}
	}
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
		case ac.op == plan.AccSum:
			forcert.Add(&ac.cell.bits, kc.accI[si])
		case ac.real && ac.op == plan.AccMax:
			forcert.MaxReal(&ac.cell.bits, kc.accR[si])
		case ac.real:
			forcert.MinReal(&ac.cell.bits, kc.accR[si])
		case ac.op == plan.AccMax:
			forcert.MaxInt(&ac.cell.bits, kc.accI[si])
		default:
			forcert.MinInt(&ac.cell.bits, kc.accI[si])
		}
	}
	kc.seed(accs)
}

// chunkParDo compiles l — every DOALL of the closure compiler — as a span
// loop against its plan: the body in chunk mode, the loop header outside
// it.  With no plan (plan.Loop says when) the body compiles in ordinary
// mode behind a first statement that stores the index through the frame
// every iteration, nothing is hoisted or folded, and the loop variable is
// left as the last iteration left it — the loop the Go emitter writes for
// a nil plan.  An open loop runs its spans through DoAllChunkedOpen and
// executes no exit barrier: the caller closes it with a FusedJoin,
// FusedClose or JoinSection on every process.  Deal and grant are the
// node's.  A granted span of a single-index loop runs the compiled body
// when it passes the end-point test of the body's span-checked references
// (trivially, when there are none), the checked plan-less body otherwise;
// what follows the span — the index left behind, the accumulator flush —
// is the same either way.
func (c *compiler) chunkParDo(l plan.Loop) stmtFn {
	t, p := l.Do, l.Plan
	cp := &chunkPlan{Plan: p}
	grant, open := l.Grant, l.Open
	planned := p != nil
	body := c.spanBody(t, cp)
	byBlock := planned && p.PerIter == ""
	var recs []plan.AccRec
	if planned {
		recs = p.AccRecs
	}
	accCells := make([]accCell, len(recs))
	for i, rec := range recs {
		accCells[i] = accCell{cell: c.in.scalar(rec.Sym), op: rec.Op, real: rec.Real}
	}
	rangeF := c.rangeFn(t.From, t.To, t.Step)
	storeVar := c.intVarStore(t.VarSym, t.Pos())
	note := noteStr("DOALL", t.Pos())
	// plan's deals in the scheduler's spelling: a selfscheduled loop runs
	// under the force's discipline.
	kind := [...]sched.Kind{plan.Cyclic: sched.PreschedCyclic, plan.Block: sched.PreschedBlock,
		plan.Self: c.in.cfg.Selfsched}[l.Deal]
	block := l.Deal == plan.Block

	if t.Inner == nil {
		return func(pr *cproc, fr *frame) {
			pr.p.Note(note)
			r := rangeF(pr, fr)
			kc := &pr.k
			kc.enter(cp, accCells, pr, fr)
			base, incr := int64(r.Start), int64(r.Incr)
			chunkFn := func(lo, hi, stride int) {
				cnt := hi - lo
				if cnt <= 0 {
					return
				}
				if stride > 1 {
					cnt = (cnt-1)/stride + 1 // cnt may be MaxInt: adding stride - 1 would wrap
				}
				i := base + int64(lo)*incr
				di := int64(stride) * incr
				run := body
				switch {
				case !kc.ok.Holds(i, i+int64(cnt-1)*di):
					run = cp.checkedBody(c, t)
				case byBlock:
					// Statement at a time over blocks, leaving nothing (cnt
					// = 0) to the per-iteration loop below; the poison check
					// keeps its cadence, one per full block.
					for b := kc.blocks(cp, cnt, di); cnt > 0; cnt -= b.n {
						kc.i, b.n = i, min(cnt, blockWidth)
						runBody(body, pr, fr)
						i += int64(b.n) * di
						if b.n == blockWidth {
							pr.p.Check()
						}
					}
				}
				ctr := 0
				for x := 0; x < cnt; x++ {
					kc.i = i
					runBody(run, pr, fr)
					i += di
					if ctr++; ctr == core.PoisonEvery {
						ctr = 0
						pr.p.Check()
					}
				}
				if !planned {
					return
				}
				last := i - di
				if block {
					last = base + int64(sched.CyclicLast(pr.p.ID(), pr.p.NP(), r.Count()))*incr
				}
				storeVar(pr, fr, last)
				kc.flush(accCells)
			}
			if open {
				pr.p.DoAllChunkedOpen(kind, grant, r, chunkFn)
			} else {
				pr.p.DoAllGranted(kind, grant, r, chunkFn)
			}
		}
	}

	irangeF := c.rangeFn(t.Inner.From, t.Inner.To, t.Inner.Step)
	storeInner := c.intVarStore(t.Inner.VarSym, t.Pos())
	return func(pr *cproc, fr *frame) {
		pr.p.Note(note)
		r := rangeF(pr, fr)
		r2 := irangeF(pr, fr)
		kc := &pr.k
		kc.enter(cp, accCells, pr, fr)
		n2 := r2.Count()
		chunkFn := func(lo, hi, stride int) {
			if hi <= lo {
				return
			}
			ctr := 0
			for kk := lo; kk < hi; kk += stride {
				kc.i, kc.j = int64(r.Index(kk/n2)), int64(r2.Index(kk%n2))
				runBody(body, pr, fr)
				if ctr++; ctr == core.PoisonEvery {
					ctr = 0
					pr.p.Check()
				}
			}
			if !planned {
				return
			}
			if block {
				kk := sched.CyclicLast(pr.p.ID(), pr.p.NP(), sched.Pairs(r.Count(), n2))
				kc.i, kc.j = int64(r.Index(kk/n2)), int64(r2.Index(kk%n2))
			}
			storeVar(pr, fr, kc.i)
			storeInner(pr, fr, kc.j)
			kc.flush(accCells)
		}
		// Index pairs are the unit of distribution: the two ranges are
		// dealt as one space of flat ordinals.
		flat := sched.Seq(sched.Pairs(r.Count(), n2))
		if open {
			pr.p.DoAllChunkedOpen(kind, grant, flat, chunkFn)
		} else {
			pr.p.DoAllGranted(kind, grant, flat, chunkFn)
		}
	}
}

// spanBody compiles t's body for chunkParDo's loops: in chunk mode against
// the plan, or — no plan — in ordinary mode behind a first statement that
// takes the index the loop left in the chunk context and stores it through
// the frame.
func (c *compiler) spanBody(t *forcelang.ParDo, cp *chunkPlan) []stmtFn {
	if cp.Plan != nil {
		c.plan = cp
		var body []stmtFn
		if cp.PerIter != "" {
			body = c.stmts(t.Body)
		} else { // element-wise: its block form, and only that
			for _, st := range t.Body {
				body = append(body, c.blockAssign(st.(*forcelang.Assign)))
			}
		}
		c.plan = nil
		return body
	}
	storeVar := c.intVarStore(t.VarSym, t.Pos())
	store := func(pr *cproc, fr *frame) { storeVar(pr, fr, pr.k.i) }
	if t.Inner != nil {
		storeInner := c.intVarStore(t.Inner.VarSym, t.Pos())
		store = func(pr *cproc, fr *frame) {
			storeVar(pr, fr, pr.k.i)
			storeInner(pr, fr, pr.k.j)
		}
	}
	return append([]stmtFn{store}, c.stmts(t.Body)...)
}

// checkedBody is the plan-less body of t, compiled when the first span
// needs it: a construct whose references stay in range never does, so it
// pays neither the closures nor their allocation.  It runs inside the
// planned loop, iteration for iteration what ExecCompiled runs — every
// subscript checked where it is evaluated, an accumulate applied to its
// shared cell atomically instead of folded (the two commute).  It is
// compiled by a copy of the compiler, at run time and possibly by several
// processes' constructs at once: the original is only read.
func (cp *chunkPlan) checkedBody(c *compiler, t *forcelang.ParDo) []stmtFn {
	cp.once.Do(func() {
		lazy := *c
		lazy.plan, lazy.tg = nil, plan.Target{} // a span-certified body holds nothing to plan
		cp.checked = lazy.spanBody(t, &chunkPlan{})
	})
	return cp.checked
}

// spanSite registers the element reference t with the plan, in chunk mode
// and when the plan span-checks it (plan.Plan.SpanCheck), and returns the
// array's words, the flat coefficient K and the site whose kctx.aff slot
// holds R: the element at index i is data[K·i + R].  For a d1 x d2 array
// K = c1·d2 + c2, the row-major offset being affine when both subscripts
// are.  Any other reference takes the ordinary, per-iteration path.
func (c *compiler) spanSite(t *forcelang.Ref) (data []atomic.Uint64, k int64, site int, ok bool) {
	if c.plan == nil {
		return nil, 0, 0, false
	}
	coef, ok := c.plan.SpanCheck(t)
	if !ok {
		return nil, 0, 0, false
	}
	sym := t.Sym
	site = c.plan.sites
	c.plan.sites++
	for d, sub := range t.Subs {
		ext := int64(sym.Dims[d])
		c.plan.subs = append(c.plan.subs, affSub{site: site, coef: coef[d], ext: ext, sub: c.cInt(sub)})
		k = k*ext + coef[d]
	}
	return c.in.array(sym).data, k, site, true
}

// spanStore compiles an assignment to a span-checked element: one closure
// storing the value, in the array's type, into data[K·i + R].
func (c *compiler) spanStore(t *forcelang.Assign, data []atomic.Uint64, k int64, site int) stmtFn {
	switch t.Target.Sym.Type {
	case forcelang.TInt:
		iv := c.cInt(t.Expr)
		return func(pr *cproc, fr *frame) { data[k*pr.k.i+pr.k.aff[site]].Store(uint64(iv(pr, fr))) }
	case forcelang.TReal:
		rv := c.cReal(t.Expr)
		return func(pr *cproc, fr *frame) { data[k*pr.k.i+pr.k.aff[site]].Store(math.Float64bits(rv(pr, fr))) }
	default:
		bv := c.cBool(t.Expr)
		return func(pr *cproc, fr *frame) { data[k*pr.k.i+pr.k.aff[site]].Store(boolBits(bv(pr, fr))) }
	}
}

// accAssign compiles one folded accumulator statement into its
// private-slot update.  The extremum update replaces the partial only
// on a strict compare, the exact test MAX(S, e) / MIN(S, e) performs
// per iteration — so NaN contributions are dropped and a +0.0 never
// replaces a -0.0, matching the per-iteration path bit for bit.
func (c *compiler) accAssign(acc plan.Accum, si int) stmtFn {
	switch {
	case acc.Op == plan.AccSum:
		dv := c.cInt(acc.Operand)
		if acc.Negate {
			return func(pr *cproc, fr *frame) { pr.k.accI[si] -= dv(pr, fr) }
		}
		return func(pr *cproc, fr *frame) { pr.k.accI[si] += dv(pr, fr) }
	case acc.Real:
		av := c.cReal(acc.Operand)
		if acc.Op == plan.AccMax {
			return func(pr *cproc, fr *frame) {
				if v := av(pr, fr); v > pr.k.accR[si] {
					pr.k.accR[si] = v
				}
			}
		}
		return func(pr *cproc, fr *frame) {
			if v := av(pr, fr); v < pr.k.accR[si] {
				pr.k.accR[si] = v
			}
		}
	}
	av := c.cInt(acc.Operand)
	if acc.Op == plan.AccMax {
		return func(pr *cproc, fr *frame) {
			if v := av(pr, fr); v > pr.k.accI[si] {
				pr.k.accI[si] = v
			}
		}
	}
	return func(pr *cproc, fr *frame) {
		if v := av(pr, fr); v < pr.k.accI[si] {
			pr.k.accI[si] = v
		}
	}
}

// --- uniform hoisting --------------------------------------------------

// hoistWorthwhile screens out expressions whose per-iteration cost is
// already a single local load: literals and private scalar reads.
func hoistWorthwhile(e forcelang.Expr) bool {
	switch t := e.(type) {
	case *forcelang.IntLit, *forcelang.RealLit, *forcelang.BoolLit:
		return false
	case *forcelang.Ref:
		return t.Sym.Storage != scPrivate
	}
	return true
}

// hoisting reports whether e, met at the entry of cInt/cReal/cBool,
// should become a read of a uniform slot: the compiler is in chunk mode,
// the plan lets e hoist (plan.Plan.Hoists) and it is worth it.
func (c *compiler) hoisting(e forcelang.Expr) bool {
	return c.plan != nil && c.plan.Hoists(e) && hoistWorthwhile(e)
}

// hoistInt returns the uniform-slot read replacing e, or nil when e
// does not hoist; hoistReal and hoistBool are its typed twins.
func (c *compiler) hoistInt(e forcelang.Expr) intFn {
	if !c.hoisting(e) {
		return nil
	}
	slot := prologue(c, &c.plan.uniInt, c.cInt, e)
	return func(pr *cproc, fr *frame) int64 { return pr.k.uniI[slot] }
}

func (c *compiler) hoistReal(e forcelang.Expr) realFn {
	if !c.hoisting(e) {
		return nil
	}
	slot := prologue(c, &c.plan.uniReal, c.cReal, e)
	return func(pr *cproc, fr *frame) float64 { return pr.k.uniR[slot] }
}

func (c *compiler) hoistBool(e forcelang.Expr) boolFn {
	if !c.hoisting(e) {
		return nil
	}
	slot := prologue(c, &c.plan.uniBool, c.cBool, e)
	return func(pr *cproc, fr *frame) bool { return pr.k.uniB[slot] }
}

// prologue compiles e with the plan cleared — a hoisted expression runs in
// the prologue, outside the loop — into a new one of slots, and returns
// which.
func prologue[F any](c *compiler, slots *[]F, compile func(forcelang.Expr) F, e forcelang.Expr) int {
	cp := c.plan
	c.plan = nil
	ev := compile(e)
	c.plan = cp
	*slots = append(*slots, ev)
	return len(*slots) - 1
}
