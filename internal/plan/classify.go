package plan

// The classification of a DOALL body — the analysis behind span execution
// in both back ends.  From the body's footprint and the proofs over it
// (summary.go), and from what the flow analysis (flow.go) proves at the
// loop's entry, the classifier decides:
//
//   - whether the body may run as whole spans at all.  Only Assign, IF
//     and sequential DO statements qualify; anything that can block,
//     perform I/O, call a subroutine or touch asynchronous variables
//     keeps per-iteration semantics, as does a body that writes its own
//     loop index or runs it through a non-private variable.
//   - which names are WRITTEN in the body.  A reference is loop-invariant
//     for the executing process exactly when it depends on no loop index
//     and no written name; the closure compiler hoists such
//     subexpressions out of the iteration loop (Hoists).
//   - which written shared arrays are PROVABLY DISJOINT across
//     iterations — the legality fact the fusion pass and the partition
//     choice below consume.
//   - which shared scalars FOLD: a pure accumulator's contributions
//     accumulate privately per span and reach the cell with one atomic
//     RMW, an add for sums, a compare-and-swap race for extrema.  Only
//     INTEGER sums fold (REAL sums round per iteration); extrema keep one
//     operand bit-for-bit, so they fold for INTEGER and REAL alike.
//   - whether the body is MAPPING-INSENSITIVE: nothing it computes or
//     leaves behind depends on which process ran which iteration.  That
//     holds when it touches no private but its loop indices and those it
//     only reads that the flow proves hold one value in every process (a
//     written private carries state across a process's iterations and out
//     of the loop; another may hold a process-varying value such as ME),
//     every shared array it writes is proven disjoint and every shared
//     scalar it writes is a folded accumulator.  A prescheduled DOALL over
//     such a body is dealt in contiguous blocks (each process writes its
//     own run of cache lines) instead of the paper's cyclic deal, its
//     index left at the value the cyclic deal would leave.
//
// No level and no constant is decided here: they are the flow's, and a
// plan classified without a program (Classify) takes none as proven.
//
// A body that reads or writes subroutine parameters disables the
// disjointness proof and the accumulator folding (a parameter may alias
// any shared cell or element, so folding could reorder aliased writes);
// the body still runs as spans.

import (
	"fmt"
	"sort"

	"repro/internal/forcelang"
)

// Plan is the classifier's verdict for one span-executable ParDo.
type Plan struct {
	Outer, Inner *forcelang.Symbol // loop indices (Inner nil for one index)

	// NoBulk disables the disjointness proof and accumulator folding
	// (parameter references present).
	NoBulk bool
	// Disjoint holds the written shared arrays proven element-disjoint
	// across iterations.
	Disjoint map[*forcelang.Symbol]bool
	// CyclicWhy is "" for a mapping-insensitive body, else the reason
	// (a phrase, completed by CyclicName when that is set) a Presched
	// DOALL over it must keep the cyclic deal.
	CyclicWhy, CyclicName string
	// AccRecs holds the folded accumulators in name order.
	AccRecs []AccRec
	// PerIter is "" for an element-wise body, which a back end may evaluate
	// a block of indices at a time, statement by statement (elementwise);
	// else the first reason it runs iteration by iteration.
	PerIter string
	// Cost is the static cost of one iteration in units (cost.go); 0 when
	// no static count bounds it.  Counted for selfscheduled loops only,
	// whose grant it sizes.
	Cost int

	sum   *Summary // the body's footprint
	space *Space   // the index space the disjointness proof decomposed over (nil under NoBulk)
	// consts are the INTEGER constants the flow analysis proves at the
	// loop's entry (nil cells: none); those the body does not write hold in
	// every iteration.
	consts env
}

// Written reports whether the body assigns the symbol (a scalar, an
// array element or a sequential DO index).  References to written names
// are varying; everything else index-free is uniform.
func (p *Plan) Written(sym *forcelang.Symbol) bool { return p.sum.Written(sym) }

// SpanCheck reports whether r, an element reference in the body, is
// range-checked per span rather than per iteration, and with which index
// coefficients: r subscripts a shared array once per dimension, each
// subscript coef[k]·Outer + rest with a literal coef[k] and a rest of
// literals and INTEGER scalars the body does not write (Space.Coef
// under the intScalar rule, the disjointness proof's decomposition).  Such
// a subscript is monotone in the index and its rest the same in every
// iteration a process executes, so a back end may compute the rest once
// per construct and check a whole span at its two ends.  Two-index spaces
// and bodies that touch a parameter answer no.
func (p *Plan) SpanCheck(r *forcelang.Ref) (coef [2]int64, ok bool) {
	if p.space == nil || p.Inner != nil || r.Sym.Storage != forcelang.SharedArray ||
		len(r.Subs) == 0 || len(r.Subs) != len(r.Sym.Dims) || len(r.Subs) > len(coef) {
		return coef, false
	}
	for k, sub := range r.Subs {
		if coef[k], _, ok = p.space.Coef(sub); !ok {
			return coef, false
		}
	}
	return coef, true
}

// Hoists reports whether e may be evaluated once per construct execution
// instead of per iteration: it reads only literals and unsubscripted
// private or shared scalars that are neither a loop index nor written by
// the body, and nothing in it can raise.
func (p *Plan) Hoists(e forcelang.Expr) bool { return p.perIter(e, true) == "" }

// Fold returns the index in AccRecs of the folded accumulator sym.
func (p *Plan) Fold(sym *forcelang.Symbol) (int, bool) {
	for i, rec := range p.AccRecs {
		if rec.Sym == sym {
			return i, true
		}
	}
	return 0, false
}

// AccOp is the fold operator of one accumulator scalar.
type AccOp uint8

const (
	AccSum AccOp = iota
	AccMax
	AccMin
)

// AccRec is one folded accumulator: the scalar, its fold operator, and
// whether the partial is a REAL (extrema only) or an INTEGER (sums and
// extrema).
type AccRec struct {
	Sym  *forcelang.Symbol
	Op   AccOp
	Real bool
}

// Classify analyses t's body with nothing proven about its entry.  It
// returns the plan, or the reason the body must keep per-iteration
// semantics.
func Classify(t *forcelang.ParDo) (*Plan, string) { return classify(t, Summarize(t.Body), env{}) }

// classify turns the footprint of a body (t's own, or the merged one of a
// fused region t opens) and what the flow analysis proves at t's entry into
// the plan: which proofs hold, and the deal.
func classify(t *forcelang.ParDo, sum *Summary, at env) (*Plan, string) {
	plan := &Plan{Outer: t.VarSym, NoBulk: sum.Param, sum: sum}
	if t.Inner != nil {
		plan.Inner = t.Inner.VarSym
		if plan.Inner == plan.Outer {
			return nil, "inner index shadows outer index"
		}
	}
	for _, sym := range []*forcelang.Symbol{plan.Outer, plan.Inner} {
		if sym != nil && sym.Storage != forcelang.PrivateScalar {
			return nil, fmt.Sprintf("loop index %s is not a private scalar", sym.Name)
		}
	}
	if sum.NotSpan != "" {
		return nil, sum.NotSpan
	}
	if sum.Written(plan.Outer) || sum.Written(plan.Inner) {
		return nil, "body writes its loop index"
	}
	if !plan.NoBulk {
		plan.space = sum.Space(plan.Outer, plan.Inner)
		for _, a := range sum.Accesses() {
			if a.Sym.Storage == forcelang.SharedArray && a.Written() && plan.space.Disjoint(a.Elems) {
				if plan.Disjoint == nil {
					plan.Disjoint = map[*forcelang.Symbol]bool{}
				}
				plan.Disjoint[a.Sym] = true
			}
			if op, ok := a.Accumulator(); ok {
				plan.AccRecs = append(plan.AccRecs, AccRec{Sym: a.Sym, Op: op, Real: a.Sym.Type == forcelang.TReal})
			}
		}
		if len(plan.AccRecs) > 1 {
			// A stable order: the emitter's output is cached by content.
			sort.Slice(plan.AccRecs, func(i, j int) bool { return plan.AccRecs[i].Sym.Name < plan.AccRecs[j].Sym.Name })
		}
	}
	plan.consts = at
	plan.partition(at)
	plan.PerIter = plan.elementwise(t.Body)
	if t.Sched != forcelang.Presched {
		plan.Cost = iterationCost(t.Body)
	}
	return plan, ""
}

// partition decides mapping-insensitivity (see the file comment): the
// body touches no private but its own indices and those it only reads and
// the flow analysis proves uniform at the entry (at), no parameter, and
// every shared name it writes is a proven-disjoint array or a folded
// scalar.
func (p *Plan) partition(at env) {
	if p.NoBulk {
		p.CyclicWhy = "parameter reference"
		return
	}
	for _, a := range p.sum.Accesses() {
		sym := a.Sym
		if (sym.Storage == forcelang.PrivateScalar || sym.Storage == forcelang.PrivateArray) && sym != p.Outer && sym != p.Inner &&
			(a.Written() || !at.uniform(sym)) {
			p.CyclicWhy, p.CyclicName = "reads private", sym.Name
			if a.WrittenFirst {
				p.CyclicWhy = "writes private"
			}
			return
		}
	}
	for _, a := range p.sum.Accesses() { // only shared names: no private was touched
		_, folded := p.Fold(a.Sym)
		if a.Written() && !folded && !p.Disjoint[a.Sym] && (p.CyclicName == "" || a.Sym.Name < p.CyclicName) {
			p.CyclicWhy, p.CyclicName = "non-disjoint, non-accumulator write of shared", a.Sym.Name
		}
	}
}

// elementwise decides PerIter.  The grammar: a straight list of numeric
// assignments and conditional extrema (MatchRecur) whose expressions cannot
// raise and whose element references are all checked per span (perIter).
// The legality of running a process's iterations statement by statement:
// every array written is disjoint — one subscript form, so an iteration
// touches its own elements only — every shared scalar written a folded
// accumulator and every private one a recurrence nothing else reads, a REAL
// one folded by a single statement so that its rounding and its ties keep
// the per-iteration order, or a temporary: stored once, first thing, from
// an expression not reading it, so every read sees this iteration's value.
func (p *Plan) elementwise(body []forcelang.Stmt) string {
	switch {
	case p.NoBulk:
		return "parameter reference"
	case p.Inner != nil:
		return "two-index space"
	}
	for _, st := range body {
		t, terms := MatchRecur(st)
		switch st := st.(type) {
		case *forcelang.Assign:
			t = st
		case *forcelang.If:
			if terms == nil {
				return "IF"
			}
		default:
			return "sequential DO"
		}
		sym := t.Target.Sym
		a := p.sum.Of(sym)
		_, folded := p.Fold(sym)
		switch {
		case sym.Type == forcelang.TLogical:
			return "LOGICAL " + sym.Name
		case sym.Storage == forcelang.SharedArray && !p.Disjoint[sym]:
			return "writes " + sym.Name + ", not proven disjoint"
		case sym.Storage == forcelang.SharedScalar && !(folded && (a.Writes == 1 || sym.Type != forcelang.TReal)):
			return "writes " + sym.Name + ", not one folded accumulator"
		case sym.Storage == forcelang.PrivateArray, sym.Storage == forcelang.PrivateScalar &&
			(a.Writes != 1 || terms == nil && (!a.WrittenFirst || refersTo(t.Expr, sym))):
			return "writes private " + sym.Name + ", not one recurrence" // nor a temporary
		case terms != nil && a.Reads != 1:
			return "reads private " + sym.Name + " outside its recurrence"
		}
		if why := p.perIter(&t.Target, false); why != "" {
			return why
		} else if why = p.perIter(t.Expr, false); why != "" {
			return why
		}
	}
	return ""
}

// perIter names the first thing in e, in evaluation order, a block
// evaluation cannot hoist out of the iteration: an operation that can
// raise (SQRT, an integer / or MOD but by a divisor that folds to a
// nonzero constant under the entry constants: the one cannot-raise rule)
// or an element reference SpanCheck leaves to the per-iteration check.
// Under hoist it also names any reference that is not a uniform scalar
// (Hoists).
func (p *Plan) perIter(e forcelang.Expr, hoist bool) string {
	switch t := e.(type) {
	case *forcelang.Ref:
		if st := t.Sym.Storage; hoist && (len(t.Subs) > 0 || t.Sym == p.Outer || t.Sym == p.Inner || p.Written(t.Sym) ||
			st != forcelang.PrivateScalar && st != forcelang.SharedScalar) {
			return "varies"
		}
		if _, ok := p.SpanCheck(t); len(t.Subs) > 0 && !ok {
			return "checks " + t.Name + " per iteration"
		}
	case *forcelang.Un:
		return p.perIter(t.X, hoist)
	case *forcelang.Bin:
		if t.Op == forcelang.OpDiv && e.Type() != forcelang.TReal && !p.nonzero(t.R) {
			return "integer /"
		} else if why := p.perIter(t.L, hoist); why != "" {
			return why
		}
		return p.perIter(t.R, hoist)
	case *forcelang.Intrinsic:
		if t.Name == "SQRT" {
			return "SQRT"
		} else if t.Name == "MOD" && e.Type() != forcelang.TReal && !p.nonzero(t.Args[1]) {
			return "integer MOD"
		}
		for _, x := range t.Args {
			if why := p.perIter(x, hoist); why != "" {
				return why
			}
		}
	}
	return ""
}

// nonzero reports whether the INTEGER divisor e folds to a nonzero
// constant in every iteration: forcert.Div and ModInt raise on zero alone,
// and Go's / and % wrap -2⁶³ / -1 to -2⁶³ and take MOD(-2⁶³, -1) to 0.
func (p *Plan) nonzero(e forcelang.Expr) bool {
	v, ok := constant[int64](e, &p.consts)
	walk(e, func(r *forcelang.Ref) { ok = ok && !p.Written(r.Sym) })
	return ok && v != 0
}

// Accum is one recognised shared-accumulate statement: the fold
// operator, the contributed operand e, whether a sum subtracts it, and
// whether the scalar is REAL (extrema only) or INTEGER.
type Accum struct {
	Op      AccOp
	Operand forcelang.Expr
	Negate  bool
	Real    bool
}

// MatchAccum matches one assignment against the shared-accumulate
// shapes: S = S + e | S = e + S | S = S - e over an INTEGER shared
// scalar, or S = MAX(S, e) | S = MIN(S, e) over an INTEGER or REAL
// shared scalar, in both cases with S unsubscripted, not a parameter,
// and e never reading S.  It is the one recogniser behind the language
// rule (README, "Semantics"): the classifier folds what it accepts, and
// every back end executes the rest of what it accepts as one atomic
// update.  Sums fold only over INTEGER: a REAL sum rounds at every
// iteration, which privately accumulated deltas cannot reproduce.
func MatchAccum(t *forcelang.Assign) (Accum, bool) {
	if t.Target.Sym.Storage != forcelang.SharedScalar {
		return Accum{}, false
	}
	var one [1]Accum // the one term a match has: no allocation on vet's and the compilers' cold path
	terms := matchFold(t, one[:0])
	if len(terms) != 1 || (terms[0].Op == AccSum && terms[0].Real) {
		return Accum{}, false
	}
	return terms[0], true
}

// MatchRecur matches a statement updating a private scalar P against the
// same shapes read as a recurrence: the assignment that stores P and one
// Accum per contributed term (no terms: no match).  A process folds its
// iterations in index order, so a REAL sum qualifies, and an INTEGER P also
// as the head of a left-leaning chain P ± e1 ± e2 …, whose wrapping sum
// re-associates exactly.  IF (x .GT. P) THEN P = x End IF, or P .LT. x, is
// P = MAX(P, x), and the .LT. / mirrored .GT. twin MIN: the strict compare
// the fold makes, so a NaN or a signed zero keeps P as the IF does.  x is
// one expression in both places, of P's type and no conversion node (a
// mixed compare stays an IF); .GE. and .LE. replace P on a tie, turning a
// +0.0 into a -0.0, and stay IFs too.  A shared P is never matched: only
// MatchAccum's shapes are atomic updates.
func MatchRecur(st forcelang.Stmt) (*forcelang.Assign, []Accum) {
	t, _ := st.(*forcelang.Assign)
	c, isIf := st.(*forcelang.If)
	if isIf && len(c.Then) == 1 && len(c.Else) == 0 {
		t, _ = c.Then[0].(*forcelang.Assign)
	}
	if t == nil || t.Target.Sym.Storage != forcelang.PrivateScalar {
		return nil, nil
	} else if !isIf {
		return t, matchFold(t, nil)
	} else if op, ok := condExtremum(c.Cond, t); ok {
		return t, []Accum{{Op: op, Operand: t.Expr, Real: t.Target.Sym.Type == forcelang.TReal}}
	}
	return nil, nil
}

// condExtremum reads cond, guarding the assignment P = x, as x .GT. P or
// P .LT. x (AccMax), or as x .LT. P or P .GT. x (AccMin).
func condExtremum(cond forcelang.Expr, t *forcelang.Assign) (AccOp, bool) {
	b, ok := cond.(*forcelang.Bin)
	if !ok || (b.Op != forcelang.OpGt && b.Op != forcelang.OpLt) {
		return 0, false
	}
	self := func(e forcelang.Expr) bool { r, ok := e.(*forcelang.Ref); return ok && r.Sym == t.Target.Sym }
	right, x, op := self(b.R), b.L, AccMin
	if !right {
		x = b.R
	}
	if right == (b.Op == forcelang.OpGt) {
		op = AccMax
	}
	if !right && !self(b.L) {
		return 0, false
	}
	conv, _ := x.(*forcelang.Intrinsic)
	return op, x.Type() == t.Target.Sym.Type && (conv == nil || conv.Name != "REAL" && conv.Name != "INT") &&
		!refersTo(x, t.Target.Sym) && Canon(x) == Canon(t.Expr)
}

// matchFold appends the terms of t read as a fold of its unsubscripted
// target S, no term reading S: S = S + e | S = e + S | S = S - e (and, for
// an INTEGER S, a left-leaning chain S ± e1 ± e2 …), or S = MAX(S, e) |
// S = MIN(S, e).  Only the self-first argument order of an extremum is
// accepted: MAX keeps its first argument unless the second is *strictly*
// greater, so for REAL operands MAX(S, e) and MAX(e, S) disagree on NaN
// and signed-zero inputs, and only the self-first form composes exactly
// with a privately folded partial.  A right-hand side the checker converts
// to the target's type is an INT or REAL node, which no shape matches: a
// fold has no conversion to replay, and extrema keep one operand
// bit-for-bit.
func matchFold(t *forcelang.Assign, terms []Accum) []Accum {
	sym, real := t.Target.Sym, t.Target.Sym.Type == forcelang.TReal
	if len(t.Target.Subs) != 0 {
		return nil
	}
	self := func(e forcelang.Expr) bool {
		r, ok := e.(*forcelang.Ref)
		return ok && r.Sym == sym && len(r.Subs) == 0
	}
	if in, ok := t.Expr.(*forcelang.Intrinsic); ok && (in.Name == "MAX" || in.Name == "MIN") && len(in.Args) == 2 && self(in.Args[0]) {
		op := AccMin
		if in.Name == "MAX" {
			op = AccMax
		}
		terms = append(terms, Accum{Op: op, Operand: in.Args[1], Real: real})
	} else {
		for e := t.Expr; ; {
			b, isBin := e.(*forcelang.Bin)
			if !isBin || (b.Op != forcelang.OpAdd && b.Op != forcelang.OpSub) {
				return nil
			}
			term, rest := b.R, b.L
			if b.Op == forcelang.OpAdd && !self(b.L) && self(b.R) {
				term, rest = b.L, b.R
			}
			terms = append(terms, Accum{Op: AccSum, Operand: term, Negate: b.Op == forcelang.OpSub, Real: real})
			if self(rest) {
				break
			} else if real {
				return nil
			}
			e = rest
		}
	}
	for _, a := range terms {
		if refersTo(a.Operand, sym) {
			return nil
		}
	}
	return terms
}
