package interp

// Block evaluation: the form an element-wise body compiles to — and its
// only one, a body has a block form or a per-iteration form, never both.
// internal/plan says which bodies qualify (Plan.PerIter): straight numeric
// assignments to span-checked elements, folded accumulators and private
// recurrences, whose expressions cannot raise and whose iterations a
// process may run statement by statement.  Inside a span that passes the
// end-point test chunkParDo walks blocks of at most blockWidth indices and
// runs each statement over a whole block before the next: an expression
// node is one call per BLOCK, a tight loop filling a typed scratch buffer
// of the chunk context.  An operand of + - * / or a fold term is a buffer
// its subexpression fills, or read inside that loop: a scalar the plan
// hoists, a span-checked element from the array's words (opnd).  So A(I)
// = A(I)*0.999 + B(I) makes three passes: multiply, add, store, a block's
// stores being one call of a word-store kernel (storeBlock).  Folds take a
// block in index order, so a REAL one rounds as the per-iteration loop
// does.  That a body runs here is the plan's decision, rendered by forcerun
// -v from the node (plan.Node.Narrate), not from this compilation.
// Buffers are numbered by evaluation depth (a node fills d, a buffer right
// operand d+1): a body needs as many as its deepest spine of buffer operands.

import (
	"math"
	"sync/atomic"
	"unsafe"

	"repro/internal/core"
	"repro/internal/forcelang"
	"repro/internal/forcert"
	"repro/internal/plan"
)

// blockWidth is how many indices one block covers.  A constant, not a
// knob: at 256 a buffer is 2 KiB, so the few a body needs sit in L1 beside
// the elements they stage; it is the poison cadence, so one Check per full
// block keeps the per-iteration loop's abort latency; and the cost per
// iteration has flattened by then (README, *Block evaluation*).
const blockWidth = core.PoisonEvery

type num interface{ int64 | float64 }

// blk fills dst with an expression's values at the block's indices:
// kctx.i, kctx.i + di, … — len(dst) = n of them (blockCtx).
type blk[T num] func(pr *cproc, fr *frame, dst []T)

// blockCtx is a process's block state: the index step and length of the
// current block, and the scratch buffers its expressions fill, each w wide.
type blockCtx struct {
	di   int64
	n, w int
	bufI []int64
	bufR []float64
}

// blocks sizes the scratch buffers for a span of cnt indices di apart: one
// block's width per buffer the body needs, so a 16-index span never pays
// for 256 slots.  Like the chunk context's other slices they only grow.
func (kc *kctx) blocks(cp *chunkPlan, cnt int, di int64) *blockCtx {
	if kc.b == nil {
		kc.b = &blockCtx{}
	}
	b := kc.b
	b.di, b.w = di, min(cnt, blockWidth)
	b.bufI = fit(b.bufI, cp.nI*b.w)
	b.bufR = fit(b.bufR, cp.nR*b.w)
	return b
}

func (kc *kctx) ints(d int) []int64    { b := kc.b; return b.bufI[d*b.w:][:b.n] }
func (kc *kctx) reals(d int) []float64 { b := kc.b; return b.bufR[d*b.w:][:b.n] }

// at returns the word offset of span-checked reference site, of flat
// coefficient k, at the block's first index, and its step per index.
func (kc *kctx) at(k int64, site int) (off, step int64) {
	return k*kc.i + kc.aff[site], k * kc.b.di
}

// blockAssign compiles one statement of an element-wise body.
func (c *compiler) blockAssign(t *forcelang.Assign) stmtFn {
	sym := t.Target.Sym
	real := sym.Type == forcelang.TReal
	switch sym.Storage {
	case scPrivate: // a recurrence, folded into the private's own slot
		slot, terms := sym.Slot, plan.MatchRecur(t)
		if real {
			return foldStmt(terms, c.oReal, (*kctx).reals, func(pr *cproc, fr *frame) *float64 { return &fr.priv[slot].r })
		}
		return foldStmt(terms, c.oInt, (*kctx).ints, func(pr *cproc, fr *frame) *int64 { return &fr.priv[slot].i })
	case scShared: // a folded accumulator, into the slot flush folds
		acc, _ := plan.MatchAccum(t)
		si, _ := c.plan.Fold(sym)
		if real {
			return foldStmt([]plan.Accum{acc}, c.oReal, (*kctx).reals, func(pr *cproc, fr *frame) *float64 { return &pr.k.accR[si] })
		}
		return foldStmt([]plan.Accum{acc}, c.oInt, (*kctx).ints, func(pr *cproc, fr *frame) *int64 { return &pr.k.accI[si] })
	}
	data, k, site, ok := c.spanSite(&t.Target)
	if !ok {
		panic(compileErrf("line %d: internal: %s is not a span-checked element", t.Pos(), t.Target.Name))
	}
	if real {
		ev := c.bReal(t.Expr, 0)
		return func(pr *cproc, fr *frame) {
			buf := pr.k.reals(0)
			ev(pr, fr, buf)
			off, step := pr.k.at(k, site)
			storeBlock(data, off, step, words(buf))
		}
	}
	ev := c.bInt(t.Expr, 0)
	return func(pr *cproc, fr *frame) {
		buf := pr.k.ints(0)
		ev(pr, fr, buf)
		off, step := pr.k.at(k, site)
		storeBlock(data, off, step, words(buf))
	}
}

// storeBlock stores src to data[off], data[off + step], … in order.  A
// block leaving the array panics with Go's index error before any store;
// storeWords runs unchecked: on amd64 plain whole-word stores (README,
// *Semantics → Visibility*, says why they suffice), elsewhere storeAtomic.
func storeBlock(data []atomic.Uint64, off, step int64, src []uint64) {
	if len(src) == 0 {
		return
	}
	_, _ = &data[off], &data[off+step*int64(len(src)-1)]
	storeWords(data, off, step, src)
}

// storeAtomic is the portable block store; on amd64, the kernel's oracle.
func storeAtomic(data []atomic.Uint64, off, step int64, src []uint64) {
	for _, v := range src {
		data[off].Store(v)
		off += step
	}
}

// words views a block buffer as the words its elements are stored as.
func words[T num](buf []T) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(buf))), len(buf))
}

// foldStmt compiles an accumulate or a recurrence: each term (buffer 0, a
// scalar or an element read in place) folds into at in index order.
func foldStmt[T num](terms []plan.Accum, opd func(forcelang.Expr, int, bool) opnd[T], buf func(*kctx, int) []T, at func(*cproc, *frame) *T) stmtFn {
	f := &fold[T]{terms, make([]opnd[T], len(terms)), buf, at}
	for i, tm := range terms {
		f.ops[i] = opd(tm.Operand, 0, true)
	}
	return f.run
}

// fold is a compiled foldStmt; a method, as binOp is.
type fold[T num] struct {
	terms []plan.Accum
	ops   []opnd[T]
	buf   func(*kctx, int) []T
	at    func(*cproc, *frame) *T
}

func (f *fold[T]) run(pr *cproc, fr *frame) {
	p, n := f.at(pr, fr), pr.k.b.n
	for i, o := range f.ops {
		op, neg, v := f.terms[i].Op, f.terms[i].Negate, *p
		switch {
		case o.ev != nil:
			tmp := f.buf(&pr.k, 0)
			o.ev(pr, fr, tmp)
			for _, x := range tmp {
				v = acc(op, neg, v, x)
			}
		case o.s != nil: // n folds: an extremum's once, an INTEGER sum's one wrapping product
			x, m := o.s(pr, fr), n
			if _, integer := any(x).(int64); integer && op == plan.AccSum {
				x, m = x*T(n), 1
			} else if op != plan.AccSum {
				m = 1
			}
			for ; m > 0; m-- {
				v = acc(op, neg, v, x)
			}
		default:
			off, step := pr.k.at(o.k, o.site)
			g := func(_ int, x T) { v = acc(op, neg, v, x) }
			if step == 1 {
				each1(o.data[off:][:n], g)
			} else {
				eachN(o.data, off, step, n, g)
			}
		}
		*p = v
	}
}

// acc folds one value x into v, with the strict compares MAX(S, e) /
// MIN(S, e) perform per iteration (accAssign).
func acc[T num](op plan.AccOp, negate bool, v, x T) T {
	switch {
	case op == plan.AccSum && !negate:
		v += x
	case op == plan.AccSum:
		v -= x
	case op == plan.AccMax && x > v, op == plan.AccMin && x < v:
		v = x
	}
	return v
}

// bReal compiles a REAL expression to its block form, into buffer d.
func (c *compiler) bReal(e forcelang.Expr, d int) blk[float64] {
	c.plan.nR = max(c.plan.nR, d+1)
	if c.plan.Hoists(e) {
		s := c.cReal(e)
		return func(pr *cproc, fr *frame, dst []float64) { fill(dst, s(pr, fr)) }
	}
	switch t := e.(type) {
	case *forcelang.Ref:
		if data, k, site, ok := c.spanSite(t); ok {
			return stage[float64](data, k, site)
		}
	case *forcelang.Intrinsic:
		switch t.Name {
		case "REAL":
			if t.Args[0].Type() == forcelang.TReal {
				return c.bReal(t.Args[0], d)
			}
			iv := c.bInt(t.Args[0], d)
			return func(pr *cproc, fr *frame, dst []float64) {
				tmp := pr.k.ints(d)
				iv(pr, fr, tmp)
				for k, v := range tmp {
					dst[k] = float64(v)
				}
			}
		case "MOD":
			return bBin(d, c.bReal(t.Args[0], d), c.bReal(t.Args[1], d+1), (*kctx).reals, func(dst, src []float64) {
				for k, v := range src {
					dst[k] = forcert.ModReal(dst[k], v)
				}
			})
		}
	}
	return bArith(e, d, c.bReal, c.oReal, (*kctx).reals)
}

// bInt compiles an INTEGER expression to its block form, into buffer d.
func (c *compiler) bInt(e forcelang.Expr, d int) blk[int64] {
	c.plan.nI = max(c.plan.nI, d+1)
	if c.plan.Hoists(e) {
		s := c.cInt(e)
		return func(pr *cproc, fr *frame, dst []int64) { fill(dst, s(pr, fr)) }
	}
	switch t := e.(type) {
	case *forcelang.Ref:
		if t.Sym == c.plan.Outer {
			return func(pr *cproc, fr *frame, dst []int64) {
				i, di := pr.k.i, pr.k.b.di
				for x := range dst {
					dst[x] = i
					i += di
				}
			}
		}
		if data, k, site, ok := c.spanSite(t); ok {
			return stage[int64](data, k, site)
		}
	case *forcelang.Intrinsic:
		switch {
		case t.Name == "INT" && t.Args[0].Type() == forcelang.TInt:
			return c.bInt(t.Args[0], d)
		case t.Name == "INT" || t.Name == "NINT":
			return c.bAsInt(t.Args[0], d, t.Name == "NINT")
		}
	}
	return bArith(e, d, c.bInt, c.oInt, (*kctx).ints)
}

// stage copies span-checked elements into dst for a node not reading them.
func stage[T num](data []atomic.Uint64, k int64, site int) blk[T] {
	return func(pr *cproc, fr *frame, dst []T) {
		off, step := pr.k.at(k, site)
		for x := range dst {
			dst[x] = word[T](data[off].Load())
			off += step
		}
	}
}

// bAsInt compiles a REAL expression taken to INTEGER: truncated (INT) or
// rounded (NINT).
func (c *compiler) bAsInt(e forcelang.Expr, d int, round bool) blk[int64] {
	c.plan.nI = max(c.plan.nI, d+1)
	rv := c.bReal(e, d)
	return func(pr *cproc, fr *frame, dst []int64) {
		tmp := pr.k.reals(d)
		rv(pr, fr, tmp)
		for k, v := range tmp {
			if dst[k] = int64(v); round {
				dst[k] = int64(math.Round(v))
			}
		}
	}
}

// bArith compiles the nodes INTEGER and REAL spell alike — unary minus,
// + - * /, ABS, MIN, MAX — over operands compiled by sub (bInt or bReal).
func bArith[T num](e forcelang.Expr, d int, sub func(forcelang.Expr, int) blk[T], opd func(forcelang.Expr, int, bool) opnd[T], buf func(*kctx, int) []T) blk[T] {
	switch t := e.(type) {
	case *forcelang.Un:
		x := sub(t.X, d)
		return func(pr *cproc, fr *frame, dst []T) {
			x(pr, fr, dst)
			for k, v := range dst {
				dst[k] = -v
			}
		}
	case *forcelang.Bin: // a buffer right operand fills dst when the left reads in place
		l, rd := opd(t.L, d, false), d
		if l.ev != nil {
			rd = d + 1
		}
		switch r := opd(t.R, rd, true); t.Op {
		case forcelang.OpAdd:
			return (&binOp[T, opAdd]{d, l, r, buf}).run
		case forcelang.OpSub:
			return (&binOp[T, opSub]{d, l, r, buf}).run
		case forcelang.OpMul:
			return (&binOp[T, opMul]{d, l, r, buf}).run
		default:
			return (&binOp[T, opDiv]{d, l, r, buf}).run
		}
	case *forcelang.Intrinsic:
		f, least := sub(t.Args[0], d), t.Name == "MIN"
		switch t.Name {
		case "ABS":
			return func(pr *cproc, fr *frame, dst []T) {
				f(pr, fr, dst)
				for k, v := range dst {
					dst[k] = forcert.Abs(v)
				}
			}
		case "MIN", "MAX": // a later argument replaces the best on a strict compare only
			for _, a := range t.Args[1:] {
				f = bBin(d, f, sub(a, d+1), buf, func(dst, src []T) {
					for k, x := range src {
						if (least && x < dst[k]) || (!least && x > dst[k]) {
							dst[k] = x
						}
					}
				})
			}
			return f
		}
	}
	panic(compileErrf("line %d: internal: %T is not an element-wise expression", e.Pos(), e))
}

// bBin compiles a two-operand node: l fills dst, r the next buffer, and op
// combines them element by element.
func bBin[T num](d int, l, r blk[T], buf func(*kctx, int) []T, op func(dst, src []T)) blk[T] {
	return func(pr *cproc, fr *frame, dst []T) {
		l(pr, fr, dst)
		tmp := buf(&pr.k, d+1)
		r(pr, fr, tmp)
		op(dst, tmp)
	}
}

// opnd is one operand of a block operator or one term of a block fold, in
// one of three shapes: a buffer its subexpression fills (ev), a scalar the
// plan hoists (s), evaluated once per block call, or a span-checked element
// (data at site, coefficient k), read from the array's words in place.
type opnd[T num] struct {
	ev   blk[T]
	s    func(*cproc, *frame) T
	data []atomic.Uint64
	k    int64
	site int
}

// shape compiles e as an operand at buffer depth d; scalar false keeps a
// hoisted e a buffer (the left of an operator: operands never commute).
func shape[T num, F ~func(*cproc, *frame) T](c *compiler, e forcelang.Expr, d int, scalar bool, sub func(forcelang.Expr, int) blk[T], uni func(forcelang.Expr) F) opnd[T] {
	if scalar && c.plan.Hoists(e) {
		return opnd[T]{s: uni(e)}
	}
	if r, ok := e.(*forcelang.Ref); ok {
		if data, k, site, ok := c.spanSite(r); ok {
			return opnd[T]{data: data, k: k, site: site}
		}
	}
	return opnd[T]{ev: sub(e, d)}
}

func (c *compiler) oReal(e forcelang.Expr, d int, sc bool) opnd[float64] {
	return shape(c, e, d, sc, c.bReal, c.cReal)
}
func (c *compiler) oInt(e forcelang.Expr, d int, sc bool) opnd[int64] {
	return shape(c, e, d, sc, c.bInt, c.cInt)
}

// binOp is a compiled l op r, dst[k] = l(k) op r(k).  A buffer left fills
// dst and a buffer right buffer d+1, or dst itself under an element left.
// An element's loop is each1 over its words re-sliced once at step 1, so Go
// checks no index in it, else eachN with Go's check (as is an element right
// of an element left).  A method: a closure inlined into its compiler loses
// its loops' inlining.  Go compiles generic code once per underlying type;
// O, the operator as BinOp + 1 bytes, makes op a constant folding arith.
type binOp[T num, O opAdd | opSub | opMul | opDiv] struct {
	d    int
	l, r opnd[T]
	buf  func(*kctx, int) []T
}

type (
	opAdd [forcelang.OpAdd + 1]byte
	opSub [forcelang.OpSub + 1]byte
	opMul [forcelang.OpMul + 1]byte
	opDiv [forcelang.OpDiv + 1]byte
)

func (b *binOp[T, O]) run(pr *cproc, fr *frame, dst []T) {
	op, l, r, n := forcelang.BinOp(unsafe.Sizeof(*new(O)))-1, &b.l, &b.r, len(dst)
	if l.ev != nil {
		l.ev(pr, fr, dst)
		switch {
		case r.ev != nil:
			src := b.buf(&pr.k, b.d+1)[:n]
			r.ev(pr, fr, src)
			for k, x := range dst {
				dst[k] = arith(op, x, src[k])
			}
		case r.s != nil:
			s := r.s(pr, fr)
			for k, x := range dst {
				dst[k] = arith(op, x, s)
			}
		default:
			off, step := pr.k.at(r.k, r.site)
			f := func(k int, x T) { dst[k] = arith(op, dst[k], x) }
			if step == 1 {
				each1(r.data[off:][:n], f)
			} else {
				eachN(r.data, off, step, n, f)
			}
		}
		return
	}
	off, step := pr.k.at(l.k, l.site)
	if r.ev != nil {
		r.ev(pr, fr, dst)
		f := func(k int, x T) { dst[k] = arith(op, x, dst[k]) }
		if step == 1 {
			each1(l.data[off:][:n], f)
		} else {
			eachN(l.data, off, step, n, f)
		}
		return
	}
	if r.s != nil {
		s := r.s(pr, fr)
		f := func(k int, x T) { dst[k] = arith(op, x, s) }
		if step == 1 {
			each1(l.data[off:][:n], f)
		} else {
			eachN(l.data, off, step, n, f)
		}
		return
	}
	roff, rstep := pr.k.at(r.k, r.site)
	f := func(k int, x T) { dst[k] = arith(op, x, word[T](r.data[roff].Load())); roff += rstep }
	if step == 1 {
		each1(l.data[off:][:n], f)
	} else {
		eachN(l.data, off, step, n, f)
	}
}

// each1 calls f(k, x) for each element x of the words w, in order.
func each1[T num](w []atomic.Uint64, f func(int, T)) {
	for k := range w {
		f(k, word[T](w[k].Load()))
	}
}

// eachN calls f(k, x) for the n elements data[off], data[off + step], ….
func eachN[T num](data []atomic.Uint64, off, step int64, n int, f func(int, T)) {
	for k := 0; k < n; k++ {
		f(k, word[T](data[off].Load()))
		off += step
	}
}

// word is an element's value from its word.
func word[T num](w uint64) T { return *(*T)(unsafe.Pointer(&w)) }

// arith is a op b (an INTEGER body holds no /: it can raise).
func arith[T num](op forcelang.BinOp, a, b T) T {
	switch op {
	case forcelang.OpAdd:
		return a + b
	case forcelang.OpSub:
		return a - b
	case forcelang.OpMul:
		return a * b
	}
	return a / b
}

func fill[T num](dst []T, v T) {
	for k := range dst {
		dst[k] = v
	}
}
