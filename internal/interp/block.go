package interp

// Block evaluation: the form an element-wise body compiles to — and its
// only one, a body has a block form or a per-iteration form, never both.
// internal/plan says which bodies qualify (Plan.PerIter): straight numeric
// assignments to span-checked elements, folded accumulators, private
// recurrences (a conditional extremum among them) and private temporaries,
// whose expressions cannot raise (an INTEGER / or MOD only by a nonzero
// literal) and whose iterations a process may run statement by statement.
// Inside a span that passes the end-point test chunkParDo walks blocks of
// at most blockWidth indices and runs each statement over a whole block
// before the next: an expression node is one call per BLOCK, a tight loop
// filling a typed scratch buffer of the chunk context.  An operand of
// + - * /, of an INTEGER MOD or a fold term is a buffer its subexpression
// fills, or read inside that loop: a scalar the plan hoists, a span-checked
// element from the array's words, a temporary from the buffer its own
// statement filled (opnd).  So A(I) = A(I)*0.999 + B(I) makes three passes:
// multiply, add, store, a block's stores being one call of a word-store
// kernel (storeBlock); and a fold term that is an operator over operands
// read in place, dotsum's X(I) * Y(I), folds inside that operator's one
// loop.  Folds take a block in index order, so a REAL one rounds as the
// per-iteration loop does; a temporary's private takes its block's last
// value, the one the per-iteration loop leaves.  That a body runs here is
// the plan's decision, rendered by forcerun -v from the node
// (plan.Node.Narrate), not from this compilation.  Buffers are numbered by
// evaluation depth (a node fills d, a buffer right operand d+1): a body
// needs as many as its deepest spine of buffer operands, and its
// temporaries the depths -1, -2, … below them.

import (
	"math"
	"slices"
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
// current block, and the scratch buffers its expressions fill, each w wide,
// depth 0 the base-th, past the temporaries'.
type blockCtx struct {
	di         int64
	n, w, base int
	bufI       []int64
	bufR       []float64
}

// blocks sizes the scratch buffers for a span of cnt indices di apart: one
// block's width per buffer the body needs, so a 16-index span never pays
// for 256 slots.  Like the chunk context's other slices they only grow.
func (kc *kctx) blocks(cp *chunkPlan, cnt int, di int64) *blockCtx {
	if kc.b == nil {
		kc.b = &blockCtx{}
	}
	b := kc.b
	b.di, b.w, b.base = di, min(cnt, blockWidth), len(cp.temps)
	b.bufI = fit(b.bufI, (b.base+cp.nI)*b.w)
	b.bufR = fit(b.bufR, (b.base+cp.nR)*b.w)
	return b
}

func (kc *kctx) ints(d int) []int64    { b := kc.b; return b.bufI[(b.base+d)*b.w:][:b.n] }
func (kc *kctx) reals(d int) []float64 { b := kc.b; return b.bufR[(b.base+d)*b.w:][:b.n] }

// temp returns the buffer depth of sym when it is a temporary of the body.
func (cp *chunkPlan) temp(sym *forcelang.Symbol) (int, bool) {
	k := slices.Index(cp.temps, sym)
	return -1 - k, k >= 0
}

// at returns the word offset of span-checked reference site, of flat
// coefficient k, at the block's first index, and its step per index.
func (kc *kctx) at(k int64, site int) (off, step int64) {
	return k*kc.i + kc.aff[site], k * kc.b.di
}

// blockStmt compiles one statement of an element-wise body.
func (c *compiler) blockStmt(st forcelang.Stmt) stmtFn {
	t, terms := plan.MatchRecur(st)
	if terms == nil {
		t = st.(*forcelang.Assign)
	}
	sym := t.Target.Sym
	slot, real, d := sym.Slot, sym.Type == forcelang.TReal, 0
	if terms == nil && sym.Storage == scPrivate { // a temporary (plan.Plan.PerIter)
		c.plan.temps = append(c.plan.temps, sym)
		d = -len(c.plan.temps)
	}
	switch {
	case terms != nil: // a recurrence, folded into the private's own slot
		if real {
			return foldStmt(c, terms, c.oReal, (*kctx).reals, func(pr *cproc, fr *frame) *float64 { return &fr.priv[slot].r })
		}
		return foldStmt(c, terms, c.oInt, (*kctx).ints, func(pr *cproc, fr *frame) *int64 { return &fr.priv[slot].i })
	case d < 0 && real: // a temporary, into its own buffer
		ev := c.bReal(t.Expr, 0)
		return func(pr *cproc, fr *frame) {
			buf := pr.k.reals(d)
			ev(pr, fr, buf)
			fr.priv[slot].r = buf[len(buf)-1]
		}
	case d < 0:
		ev := c.bInt(t.Expr, 0)
		return func(pr *cproc, fr *frame) {
			buf := pr.k.ints(d)
			ev(pr, fr, buf)
			fr.priv[slot].i = buf[len(buf)-1]
		}
	}
	switch sym.Storage {
	case scShared: // a folded accumulator, into the slot flush folds
		acc, _ := plan.MatchAccum(t)
		si, _ := c.plan.Fold(sym)
		if real {
			return foldStmt(c, []plan.Accum{acc}, c.oReal, (*kctx).reals, func(pr *cproc, fr *frame) *float64 { return &pr.k.accR[si] })
		}
		return foldStmt(c, []plan.Accum{acc}, c.oInt, (*kctx).ints, func(pr *cproc, fr *frame) *int64 { return &pr.k.accI[si] })
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

// foldStmt compiles an accumulate or a recurrence: each term folds into at
// in index order, in a loop compiled for its accumulate operator — an
// operator over operands read in place inside that operator's own loop
// (foldOp), any other term read as an operand (foldIn).
func foldStmt[T num](c *compiler, terms []plan.Accum, opd func(forcelang.Expr, int, bool) opnd[T], buf func(*kctx, int) []T, at func(*cproc, *frame) *T) stmtFn {
	f := &fold[T]{make([]term[T], len(terms)), at}
	for i, tm := range terms {
		if op, l, r, ok := operator(tm.Operand); ok && c.inPlace(l, false) && c.inPlace(r, true) {
			f.terms[i] = newTerm(tm, op, opd(l, 0, false), opd(r, 0, true), buf)
		} else {
			f.terms[i] = newTerm(tm, 0, opd(tm.Operand, 0, true), opnd[T]{}, buf)
		}
	}
	return f.run
}

// fold is a compiled foldStmt; a method, as binOp is.
type fold[T num] struct {
	terms []term[T]
	at    func(*cproc, *frame) *T
}

// term folds one term's values at the block's indices into v, in order.
type term[T num] func(pr *cproc, fr *frame, v T) T

func (f *fold[T]) run(pr *cproc, fr *frame) {
	p := f.at(pr, fr)
	for _, t := range f.terms {
		*p = t(pr, fr, *p)
	}
}

// The accumulate operators a fold term's loop is compiled for, each a type
// whose size is its code, as binOp's operator is.
type (
	accAdd [1]byte // S = S + e
	accSub [2]byte // S = S - e
	accMax [3]byte // S = MAX(S, e)
	accMin [4]byte // S = MIN(S, e)
)

type accOp interface {
	accAdd | accSub | accMax | accMin
}

// acc folds one value x into v, with the strict compares MAX(S, e) /
// MIN(S, e) perform per iteration (accAssign).
func acc[T num, A accOp](v, x T) T {
	switch unsafe.Sizeof(*new(A)) {
	case unsafe.Sizeof(accAdd{}):
		return v + x
	case unsafe.Sizeof(accSub{}):
		return v - x
	case unsafe.Sizeof(accMax{}):
		if x > v {
			return x
		}
	default:
		if x < v {
			return x
		}
	}
	return v
}

// newTerm compiles a fold term for its accumulate operator: the operand l
// when op is 0 (foldIn), else l op r, l an element and r an element or a
// scalar, folded inside the operator's one loop (foldOp).
func newTerm[T num](a plan.Accum, op uintptr, l, r opnd[T], buf func(*kctx, int) []T) term[T] {
	switch {
	case a.Op == plan.AccMax:
		return accTerm[T, accMax](op, l, r, buf)
	case a.Op == plan.AccMin:
		return accTerm[T, accMin](op, l, r, buf)
	case a.Negate:
		return accTerm[T, accSub](op, l, r, buf)
	}
	return accTerm[T, accAdd](op, l, r, buf)
}

func accTerm[T num, A accOp](op uintptr, l, r opnd[T], buf func(*kctx, int) []T) term[T] {
	switch op {
	case 0:
		return (&foldIn[T, A]{l, buf}).run
	case unsafe.Sizeof(opAdd{}):
		return (&foldOp[T, A, opAdd]{l, r}).run
	case unsafe.Sizeof(opSub{}):
		return (&foldOp[T, A, opSub]{l, r}).run
	case unsafe.Sizeof(opMul{}):
		return (&foldOp[T, A, opMul]{l, r}).run
	case unsafe.Sizeof(opDiv{}):
		return (&foldOp[T, A, opDiv]{l, r}).run
	}
	return (&foldOp[T, A, opMod]{l, r}).run
}

// foldIn is a fold term read as one operand: buffer 0 its subexpression
// fills or a temporary's, a scalar folded n times (an extremum's once, an
// INTEGER sum's one wrapping product), or an element folded in place.
type foldIn[T num, A accOp] struct {
	o   opnd[T]
	buf func(*kctx, int) []T
}

func (f *foldIn[T, A]) run(pr *cproc, fr *frame, v T) T {
	o, n := &f.o, pr.k.b.n
	switch {
	case o.buffered():
		for _, x := range o.vals(pr, fr, f.buf, f.buf(&pr.k, 0)) {
			v = acc[T, A](v, x)
		}
	case o.s != nil:
		x, m := o.s(pr, fr), n
		if sum := unsafe.Sizeof(*new(A)) <= unsafe.Sizeof(accSub{}); !sum {
			m = 1
		} else if _, integer := any(x).(int64); integer {
			x, m = x*T(n), 1
		}
		for ; m > 0; m-- {
			v = acc[T, A](v, x)
		}
	default:
		off, step := pr.k.at(o.k, o.site)
		g := func(_ int, x T) { v = acc[T, A](v, x) }
		if step == 1 {
			each1(o.data[off:][:n], g)
		} else {
			eachN(o.data, off, step, n, g)
		}
	}
	return v
}

// foldOp is a fold term l O r over an element l and an element or scalar
// r, folded by A in the operator's one loop: no buffer, one pass.
type foldOp[T num, A accOp, O binOps] struct{ l, r opnd[T] }

func (f *foldOp[T, A, O]) run(pr *cproc, fr *frame, v T) T {
	l, r, n := &f.l, &f.r, pr.k.b.n
	off, step := pr.k.at(l.k, l.site)
	// A REAL term is rounded before it is folded, v += T(x * y): without
	// the conversion Go may fuse v + x*y into one FMA on arm64, ppc64le
	// and s390x, rounding once where the per-iteration loop rounds twice.
	if r.s != nil {
		s := r.s(pr, fr)
		g := func(_ int, x T) { v = acc[T, A](v, T(arith[T, O](x, s))) }
		if step == 1 {
			each1(l.data[off:][:n], g)
		} else {
			eachN(l.data, off, step, n, g)
		}
		return v
	}
	roff, rstep := pr.k.at(r.k, r.site)
	g := func(_ int, x T) {
		v = acc[T, A](v, T(arith[T, O](x, word[T](r.data[roff].Load()))))
		roff += rstep
	}
	if step == 1 {
		each1(l.data[off:][:n], g)
	} else {
		eachN(l.data, off, step, n, g)
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
		} else if d, ok := c.plan.temp(t.Sym); ok {
			return reread(d, (*kctx).reals)
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
		} else if d, ok := c.plan.temp(t.Sym); ok {
			return reread(d, (*kctx).ints)
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

// reread copies temporary d's buffer into dst for a node filling its own.
func reread[T num](d int, buf func(*kctx, int) []T) blk[T] {
	return func(pr *cproc, fr *frame, dst []T) { copy(dst, buf(&pr.k, d)) }
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
// + - * /, ABS, MIN, MAX — and INTEGER MOD over operands compiled by sub
// (bInt or bReal).
func bArith[T num](e forcelang.Expr, d int, sub func(forcelang.Expr, int) blk[T], opd func(forcelang.Expr, int, bool) opnd[T], buf func(*kctx, int) []T) blk[T] {
	if op, l, r, ok := operator(e); ok { // a buffer right operand fills dst when the left reads in place
		lo, rd := opd(l, d, false), d
		if lo.buffered() { // d+1, as binOp runs it, beside a temporary too
			rd = d + 1
		}
		return newBinOp(op, d, lo, opd(r, rd, true), buf)
	}
	switch t := e.(type) {
	case *forcelang.Un:
		x := sub(t.X, d)
		return func(pr *cproc, fr *frame, dst []T) {
			x(pr, fr, dst)
			for k, v := range dst {
				dst[k] = -v
			}
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
// one of four shapes: a buffer its subexpression fills (ev), a temporary's
// buffer at depth tmp < 0, a scalar the plan hoists (s), evaluated once per
// block call, or a span-checked element (data at site, coefficient k), read
// from the array's words in place.
type opnd[T num] struct {
	ev   blk[T]
	tmp  int
	s    func(*cproc, *frame) T
	data []atomic.Uint64
	k    int64
	site int
}

func (o *opnd[T]) buffered() bool { return o.ev != nil || o.tmp < 0 }

// vals returns the buffer holding a buffered operand's values: the
// temporary's, or dst filled by its subexpression.
func (o *opnd[T]) vals(pr *cproc, fr *frame, buf func(*kctx, int) []T, dst []T) []T {
	if o.tmp < 0 {
		return buf(&pr.k, o.tmp)
	}
	o.ev(pr, fr, dst)
	return dst
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
		} else if d, ok := c.plan.temp(r.Sym); ok {
			return opnd[T]{tmp: d}
		}
	}
	return opnd[T]{ev: sub(e, d)}
}

// inPlace reports whether shape reads e in place: a span-checked element,
// or under scalar a scalar the plan hoists.
func (c *compiler) inPlace(e forcelang.Expr, scalar bool) bool {
	if scalar && c.plan.Hoists(e) {
		return true
	}
	r, ok := e.(*forcelang.Ref)
	if ok {
		_, ok = c.plan.SpanCheck(r)
	}
	return ok
}

func (c *compiler) oReal(e forcelang.Expr, d int, sc bool) opnd[float64] {
	return shape(c, e, d, sc, c.bReal, c.cReal)
}
func (c *compiler) oInt(e forcelang.Expr, d int, sc bool) opnd[int64] {
	return shape(c, e, d, sc, c.bInt, c.cInt)
}

// binOp is a compiled l op r, dst[k] = l(k) op r(k).  A buffer left fills
// dst — a temporary's is read where it is — and a buffer right buffer d+1,
// or dst itself under an element left.
// An element's loop is each1 over its words re-sliced once at step 1, so Go
// checks no index in it, else eachN with Go's check (as is an element right
// of an element left).  A method: a closure inlined into its compiler loses
// its loops' inlining.  Go compiles generic code once per underlying type;
// O, the operator as a type whose size is its code, folds arith's switch.
type binOp[T num, O binOps] struct {
	d    int
	l, r opnd[T]
	buf  func(*kctx, int) []T
}

// The block operators, each a type whose size is its code: forcelang's
// BinOp + 1 for + - * /, and INTEGER MOD past them.
type (
	opAdd [forcelang.OpAdd + 1]byte
	opSub [forcelang.OpSub + 1]byte
	opMul [forcelang.OpMul + 1]byte
	opDiv [forcelang.OpDiv + 1]byte
	opMod [forcelang.OpDiv + 2]byte
)

type binOps interface {
	opAdd | opSub | opMul | opDiv | opMod
}

// operator reads e as a block operator, + - * / or an INTEGER MOD: its
// code (the size of its type) and its two operands.
func operator(e forcelang.Expr) (op uintptr, l, r forcelang.Expr, ok bool) {
	switch t := e.(type) {
	case *forcelang.Bin:
		return uintptr(t.Op) + 1, t.L, t.R, t.Op <= forcelang.OpDiv
	case *forcelang.Intrinsic:
		if t.Name == "MOD" && t.Type() == forcelang.TInt {
			return unsafe.Sizeof(opMod{}), t.Args[0], t.Args[1], true
		}
	}
	return 0, nil, nil, false
}

// newBinOp compiles l op r into buffer d.
func newBinOp[T num](op uintptr, d int, l, r opnd[T], buf func(*kctx, int) []T) blk[T] {
	switch op {
	case unsafe.Sizeof(opAdd{}):
		return (&binOp[T, opAdd]{d, l, r, buf}).run
	case unsafe.Sizeof(opSub{}):
		return (&binOp[T, opSub]{d, l, r, buf}).run
	case unsafe.Sizeof(opMul{}):
		return (&binOp[T, opMul]{d, l, r, buf}).run
	case unsafe.Sizeof(opDiv{}):
		return (&binOp[T, opDiv]{d, l, r, buf}).run
	}
	return (&binOp[T, opMod]{d, l, r, buf}).run
}

func (b *binOp[T, O]) run(pr *cproc, fr *frame, dst []T) {
	l, r, n := &b.l, &b.r, len(dst)
	if l.buffered() {
		lv := l.vals(pr, fr, b.buf, dst)[:n]
		switch {
		case r.buffered():
			src := r.vals(pr, fr, b.buf, b.buf(&pr.k, b.d+1))[:n]
			for k, x := range lv {
				dst[k] = arith[T, O](x, src[k])
			}
		case r.s != nil:
			s := r.s(pr, fr)
			for k, x := range lv {
				dst[k] = arith[T, O](x, s)
			}
		default:
			off, step := pr.k.at(r.k, r.site)
			f := func(k int, x T) { dst[k] = arith[T, O](lv[k], x) }
			if step == 1 {
				each1(r.data[off:][:n], f)
			} else {
				eachN(r.data, off, step, n, f)
			}
		}
		return
	}
	off, step := pr.k.at(l.k, l.site)
	if r.buffered() {
		src := r.vals(pr, fr, b.buf, dst)
		f := func(k int, x T) { dst[k] = arith[T, O](x, src[k]) }
		if step == 1 {
			each1(l.data[off:][:n], f)
		} else {
			eachN(l.data, off, step, n, f)
		}
		return
	}
	if r.s != nil {
		s := r.s(pr, fr)
		f := func(k int, x T) { dst[k] = arith[T, O](x, s) }
		if step == 1 {
			each1(l.data[off:][:n], f)
		} else {
			eachN(l.data, off, step, n, f)
		}
		return
	}
	roff, rstep := pr.k.at(r.k, r.site)
	f := func(k int, x T) { dst[k] = arith[T, O](x, word[T](r.data[roff].Load())); roff += rstep }
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

// arith is a O b.  An INTEGER / or MOD has a divisor that folds to a
// nonzero constant (the plan's cannot-raise rule), so neither raises; MOD
// is INTEGER's alone, a REAL MOD being forcert.ModReal's.  Go's / and % are
// forcert's: -2⁶³ / -1 wraps to -2⁶³ and -2⁶³ % -1 is 0.
func arith[T num, O binOps](a, b T) T {
	switch unsafe.Sizeof(*new(O)) {
	case unsafe.Sizeof(opAdd{}):
		return a + b
	case unsafe.Sizeof(opSub{}):
		return a - b
	case unsafe.Sizeof(opMul{}):
		return a * b
	case unsafe.Sizeof(opMod{}):
		return T(int64(a) % int64(b))
	}
	return a / b
}

func fill[T num](dst []T, v T) {
	for k := range dst {
		dst[k] = v
	}
}
