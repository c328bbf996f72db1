package interp

// Block evaluation: the form an element-wise body compiles to — and its
// only one, a body has a block form or a per-iteration form, never both.
// internal/plan says which bodies qualify (Plan.PerIter): straight numeric
// assignments to span-checked elements, folded accumulators and private
// recurrences, whose expressions cannot raise and whose iterations a
// process may run statement by statement.  Inside a span that passes the
// end-point test chunkParDo walks blocks of at most blockWidth indices and
// runs each statement over a whole block before the next: an expression
// node is one closure call per BLOCK, filling a typed scratch buffer of the
// chunk context in a tight loop.  A block's stores are one call of a
// word-store kernel (storeBlock); folds take a block in index order, so a
// REAL one rounds as the per-iteration loop does.  Uniform subexpressions
// come from cInt / cReal (hoisted as ever, broadcast per block), element
// references from spanSite (plan.Plan.SpanCheck).  That a body runs here
// is the plan's decision, and forcerun -v's "block-evaluated" renders it
// from the node (plan.Node.Narrate), not from this compilation.
// Buffers are numbered by evaluation depth — a node fills buffer d and
// evaluates its right operand into d+1 — so a body needs as many as its
// deepest right spine, not one per node.

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
			return foldStmt(terms, c.bReal, (*kctx).reals, func(pr *cproc, fr *frame) *float64 { return &fr.priv[slot].r })
		}
		return foldStmt(terms, c.bInt, (*kctx).ints, func(pr *cproc, fr *frame) *int64 { return &fr.priv[slot].i })
	case scShared: // a folded accumulator, into the slot flush folds
		acc, _ := plan.MatchAccum(t)
		si, _ := c.plan.Fold(sym)
		if real {
			return foldStmt([]plan.Accum{acc}, c.bReal, (*kctx).reals, func(pr *cproc, fr *frame) *float64 { return &pr.k.accR[si] })
		}
		return foldStmt([]plan.Accum{acc}, c.bInt, (*kctx).ints, func(pr *cproc, fr *frame) *int64 { return &pr.k.accI[si] })
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

// foldStmt compiles an accumulate or a recurrence: each term's block folds,
// in index order, into the scalar at.
func foldStmt[T num](terms []plan.Accum, sub func(forcelang.Expr, int) blk[T], buf func(*kctx, int) []T, at func(*cproc, *frame) *T) stmtFn {
	evs := make([]blk[T], len(terms))
	for i, tm := range terms {
		evs[i] = sub(tm.Operand, 0)
	}
	return func(pr *cproc, fr *frame) {
		tmp, p := buf(&pr.k, 0), at(pr, fr)
		for i, ev := range evs {
			ev(pr, fr, tmp)
			*p = foldB(terms[i].Op, terms[i].Negate, *p, tmp)
		}
	}
}

// foldB folds src into v, with the strict compares MAX(S, e) / MIN(S, e)
// perform per iteration (accAssign).
func foldB[T num](op plan.AccOp, negate bool, v T, src []T) T {
	switch {
	case op == plan.AccSum && negate:
		for _, x := range src {
			v -= x
		}
	case op == plan.AccSum:
		for _, x := range src {
			v += x
		}
	case op == plan.AccMax:
		for _, x := range src {
			if x > v {
				v = x
			}
		}
	default:
		for _, x := range src {
			if x < v {
				v = x
			}
		}
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
			return func(pr *cproc, fr *frame, dst []float64) {
				off, step := pr.k.at(k, site)
				for x := range dst {
					dst[x] = math.Float64frombits(data[off].Load())
					off += step
				}
			}
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
	return bArith(e, d, c.bReal, (*kctx).reals)
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
			return func(pr *cproc, fr *frame, dst []int64) {
				off, step := pr.k.at(k, site)
				for x := range dst {
					dst[x] = int64(data[off].Load())
					off += step
				}
			}
		}
	case *forcelang.Intrinsic:
		switch {
		case t.Name == "INT" && t.Args[0].Type() == forcelang.TInt:
			return c.bInt(t.Args[0], d)
		case t.Name == "INT" || t.Name == "NINT":
			return c.bAsInt(t.Args[0], d, t.Name == "NINT")
		}
	}
	return bArith(e, d, c.bInt, (*kctx).ints)
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
func bArith[T num](e forcelang.Expr, d int, sub func(forcelang.Expr, int) blk[T], buf func(*kctx, int) []T) blk[T] {
	switch t := e.(type) {
	case *forcelang.Un:
		x := sub(t.X, d)
		return func(pr *cproc, fr *frame, dst []T) {
			x(pr, fr, dst)
			for k, v := range dst {
				dst[k] = -v
			}
		}
	case *forcelang.Bin:
		op := t.Op
		return bBin(d, sub(t.L, d), sub(t.R, d+1), buf, func(dst, src []T) { binB(op, dst, src) })
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

func fill[T num](dst []T, v T) {
	for k := range dst {
		dst[k] = v
	}
}

// binB applies one arithmetic operator element by element, dst op= src.
// (An INTEGER body never holds a division: it can raise.)
func binB[T num](op forcelang.BinOp, dst, src []T) {
	src = src[:len(dst)]
	switch op {
	case forcelang.OpAdd:
		for k := range dst {
			dst[k] += src[k]
		}
	case forcelang.OpSub:
		for k := range dst {
			dst[k] -= src[k]
		}
	case forcelang.OpMul:
		for k := range dst {
			dst[k] *= src[k]
		}
	default:
		for k := range dst {
			dst[k] /= src[k]
		}
	}
}
