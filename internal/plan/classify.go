package plan

// Uniform/varying classification for DOALL bodies — the analysis behind
// span execution in both back ends.  From the body's footprint and the
// proofs over it (summary.go) the classifier decides:
//
//   - whether the body may run as whole spans at all.  Only Assign, IF
//     and sequential DO statements qualify; anything that can block,
//     perform I/O, call a subroutine or touch asynchronous variables
//     keeps per-iteration semantics, as does a body that writes its own
//     loop index or runs it through a non-private variable.
//   - which names are WRITTEN in the body.  A reference is *uniform*
//     (loop-invariant for the executing process) exactly when it depends
//     on no loop index and no written name; the closure compiler hoists
//     uniform subexpressions out of the iteration loop.
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
//     holds when it touches no private name but its loop indices (a
//     written private carries state across a process's iterations and
//     out of the loop; a read one may hold a process-varying value such
//     as ME), every shared array it writes is proven disjoint and every
//     shared scalar it writes is a folded accumulator.  A prescheduled
//     DOALL over such a body is dealt in contiguous blocks (each process
//     writes its own run of cache lines) instead of the paper's cyclic
//     deal, its index left at the value the cyclic deal would leave.
//
// A body that reads or writes subroutine parameters disables the
// disjointness proof and the accumulator folding (a parameter may alias
// any shared cell or element, so folding could reorder aliased writes);
// the body still runs as spans.

import (
	"fmt"
	"sort"

	"repro/internal/forcelang"
	"repro/internal/uniform"
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
	// Cost is the static cost of one iteration in units (cost.go); 0 when
	// no static count bounds it.  Counted for selfscheduled loops only,
	// whose grant it sizes.
	Cost int

	sum   *Summary       // the body's footprint
	space *uniform.Space // the index space the disjointness proof decomposed over (nil under NoBulk)
}

// Written reports whether the body assigns the symbol (a scalar, an
// array element or a sequential DO index).  References to written names
// are varying; everything else index-free is uniform.
func (p *Plan) Written(sym *forcelang.Symbol) bool { return p.sum.Written(sym) }

// Affine reports whether every subscript of r, an element reference in
// the body of a single-index DOALL, is ci·Outer + rest with a literal ci
// and a rest that reads only literals and INTEGER scalars the body does
// not write — the decomposition the disjointness proof stands on
// (uniform.Space.Coef under the intScalar rule), kept instead of thrown
// away.  coef[k] is subscript k's ci.  Such a subscript is monotone in
// the index and its rest is the same in every iteration a process
// executes, so a back end may compute the rest once per construct and
// range-check a whole span at its two ends.  Two-index spaces and bodies
// that touch a parameter answer no.
func (p *Plan) Affine(r *forcelang.Ref) (coef [2]int64, ok bool) {
	if p.space == nil || p.Inner != nil || len(r.Subs) == 0 || len(r.Subs) > len(coef) {
		return coef, false
	}
	for k, sub := range r.Subs {
		if coef[k], _, ok = p.space.Coef(sub); !ok {
			return coef, false
		}
	}
	return coef, true
}

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

// Classify analyses t's body.  It returns the plan, or the reason the
// body must keep per-iteration semantics.
func Classify(t *forcelang.ParDo) (*Plan, string) { return classify(t, Summarize(t.Body)) }

// classify turns the footprint of a body (t's own, or the merged one of a
// fused region t opens) into the plan: which proofs hold, and the deal.
func classify(t *forcelang.ParDo, sum *Summary) (*Plan, string) {
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
	plan.partition()
	if t.Sched != forcelang.Presched {
		plan.Cost = iterationCost(t.Body)
	}
	return plan, ""
}

// partition decides mapping-insensitivity (see the file comment): the
// body touches no private but its own indices and no parameter, and every
// shared name it writes is a proven-disjoint array or a folded scalar.
func (p *Plan) partition() {
	if p.NoBulk {
		p.CyclicWhy = "parameter reference"
		return
	}
	for _, a := range p.sum.Accesses() {
		sym := a.Sym
		if (sym.Storage == forcelang.PrivateScalar || sym.Storage == forcelang.PrivateArray) && sym != p.Outer && sym != p.Inner {
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
// update.
func MatchAccum(t *forcelang.Assign) (Accum, bool) {
	name, decl := t.Target.Name, t.Target.Sym
	if decl.Storage != forcelang.SharedScalar || len(t.Target.Subs) != 0 {
		return Accum{}, false
	}
	acc := Accum{Real: decl.Type == forcelang.TReal}
	want := decl.Type // the type the whole right-hand side must have
	if delta, neg, ok := uniform.AccumDelta(name, t.Expr); ok {
		// Sums fold only when the target and the whole RHS are
		// statically INTEGER: a REAL-promoted sum is computed in
		// float64 and rounded at every iteration, which privately
		// accumulated deltas cannot reproduce.
		acc.Op, acc.Operand, acc.Negate = AccSum, delta, neg
		want = forcelang.TInt
	} else if arg, isMax, ok := uniform.AccumMinMax(name, t.Expr); ok {
		// Extrema fold exactly for INTEGER and REAL alike — MAX/MIN
		// keep one operand bit-for-bit — but the promoted intrinsic
		// type must equal the target's declared type, so the store
		// performs no conversion the fold would have to replay.
		acc.Op, acc.Operand = AccMin, arg
		if isMax {
			acc.Op = AccMax
		}
	} else {
		return Accum{}, false
	}
	if decl.Type != want || t.Expr.Type() != want || uniform.RefersTo(acc.Operand, name) {
		return Accum{}, false
	}
	return acc, true
}
