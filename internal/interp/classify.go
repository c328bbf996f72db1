package interp

// Uniform/varying classification for DOALL bodies — the analysis behind
// the chunk tier (chunk.go).  One walk over a ParDo body decides:
//
//   - whether the body is chunk-compilable at all.  Only Assign, IF and
//     sequential DO statements qualify; anything that can block, perform
//     I/O, call a subroutine or touch asynchronous variables falls back
//     to the per-iteration path, as does a body that writes its own loop
//     index or runs it through a non-private variable.
//   - which names are WRITTEN in the body.  A reference is *uniform*
//     (loop-invariant for the executing process) exactly when it depends
//     on no loop index and no written name; uniform subexpressions are
//     hoisted out of the iteration loop by the chunk compiler.
//   - which written shared arrays are PROVABLY DISJOINT: every access
//     uses one identical subscript form, affine in the loop indices with
//     literal coefficients and an index-free remainder, and that form is
//     injective on the index space (nonzero coefficient for one index,
//     a nonsingular 2x2 minor for two).  Every element is an atomic
//     word either way; disjointness is the legality fact the fusion
//     pass, the partition choice below and forcevet consume.
//   - which shared scalars are pure accumulators: every appearance in
//     the body is one accumulator shape over the same operator —
//     `S = S + e` / `S = S - e` with an INTEGER right-hand side (sums
//     round under REAL, so only INTEGER sums fold exactly), or
//     `S = MAX(S, e)` / `S = MIN(S, e)` for INTEGER and REAL alike
//     (extrema keep one operand bit-for-bit, so they fold exactly) —
//     with e never reading S.  Their contributions accumulate
//     privately per chunk and fold into the cell with one atomic RMW:
//     an add for sums, a compare-and-swap race for extrema.
//
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
// the body still chunk-compiles.

import (
	"fmt"

	"repro/internal/forcelang"
	"repro/internal/uniform"
)

// chunkPlan is the classifier's verdict for one chunk-compilable ParDo,
// consumed (and extended with hoisted-uniform slots) by the closure
// compiler while it compiles the body in chunk mode.
type chunkPlan struct {
	outer, inner string // loop index names ("" when no inner index)

	// written holds every scalar and array name the body assigns
	// (including sequential DO indices).  References to written names
	// are varying; everything else index-free is uniform.
	written map[string]bool
	// noBulk disables the disjointness proof and accumulator folding
	// (parameter references present).
	noBulk bool
	// disjoint holds the written shared arrays proven element-disjoint
	// across iterations.
	disjoint map[string]bool
	// cyclicWhy is "" for a mapping-insensitive body, else the reason
	// (a phrase, completed by cyclicName when that is set) a Presched
	// DOALL over it must keep the cyclic deal.
	cyclicWhy, cyclicName string
	// accs maps accumulator scalars to their private-slot index.
	accs map[string]int
	// accSyms holds the accumulator records in slot order.
	accSyms []accRec

	// Hoisted uniform subexpressions, compiled with the plan cleared,
	// evaluated once per construct execution and read from the typed
	// slots of the process's chunk context inside the chunk loop.
	// Filled in as the body is compiled (hoistInt/hoistReal/hoistBool).
	uniInt  []intFn
	uniReal []realFn
	uniBool []boolFn
}

// accOp is the fold operator of one accumulator scalar.
type accOp uint8

const (
	accSum accOp = iota
	accMax
	accMin
)

// accRec is one accumulator scalar's plan entry: its symbol, its fold
// operator, and whether the partial is a float64 (REAL extrema) or an
// int64 (INTEGER sums and extrema).
type accRec struct {
	sym  symbol
	op   accOp
	real bool
}

// classifier carries the single-walk state.
type classifier struct {
	prog *forcelang.Program
	lay  *unitLayout
	plan *chunkPlan

	// reads counts scalar (unsubscripted) reads per name; selfRefs and
	// writes count, per shared scalar, the reads and writes accounted
	// for by well-formed accumulator statements.  accOps records the
	// operator each candidate accumulates under; tainted marks scalars
	// with a non-accumulator write (or with mixed operators — a sum and
	// a MAX of the same scalar cannot share one private partial).
	reads    map[string]int
	selfRefs map[string]int
	accWrite map[string]int
	writes   map[string]int
	accOps   map[string]accOp
	tainted  map[string]bool

	// arrays holds every subscripted access (read or write) per name.
	arrays map[string][]*forcelang.Ref
}

// classifyParDo analyses t's body.  It returns the plan, or a fallback
// reason when the body must stay on the per-iteration path.
func classifyParDo(prog *forcelang.Program, t *forcelang.ParDo, lay *unitLayout) (*chunkPlan, string) {
	plan := &chunkPlan{
		outer:    t.Var,
		written:  map[string]bool{},
		disjoint: map[string]bool{},
		accs:     map[string]int{},
	}
	if t.Inner != nil {
		plan.inner = t.Inner.Var
		if plan.inner == plan.outer {
			return nil, "inner index shadows outer index"
		}
	}
	for _, v := range []string{plan.outer, plan.inner} {
		if v == "" {
			continue
		}
		sym, ok := lay.syms[v]
		if !ok || sym.class != scPrivate {
			return nil, fmt.Sprintf("loop index %s is not a private scalar", v)
		}
	}
	cl := &classifier{
		prog:     prog,
		lay:      lay,
		plan:     plan,
		reads:    map[string]int{},
		selfRefs: map[string]int{},
		accWrite: map[string]int{},
		writes:   map[string]int{},
		accOps:   map[string]accOp{},
		tainted:  map[string]bool{},
		arrays:   map[string][]*forcelang.Ref{},
	}
	if reason := cl.stmts(t.Body); reason != "" {
		return nil, reason
	}
	if plan.written[plan.outer] || (plan.inner != "" && plan.written[plan.inner]) {
		return nil, "body writes its loop index"
	}
	cl.planArrays()
	cl.planAccs()
	cl.planPartition()
	return plan, ""
}

// planPartition completes the mapping-insensitivity verdict (see the
// file comment) that touchPriv started during the walk.
func (cl *classifier) planPartition() {
	plan := cl.plan
	if plan.noBulk {
		plan.cyclicWhy, plan.cyclicName = "parameter reference", ""
	}
	if plan.cyclicWhy != "" {
		return
	}
	for name := range plan.written { // only shared names: no private was touched
		_, isAcc := plan.accs[name]
		if !isAcc && !plan.disjoint[name] && (plan.cyclicName == "" || name < plan.cyclicName) {
			plan.cyclicWhy, plan.cyclicName = "non-disjoint, non-accumulator write of shared", name
		}
	}
}

// touchPriv records the body's first use of a private name that is not
// one of its own loop indices.
func (cl *classifier) touchPriv(verb, name string) {
	sym := cl.lay.syms[name]
	if cl.plan.cyclicWhy == "" && (sym.class == scPrivate || sym.class == scPrivArray) &&
		name != cl.plan.outer && name != cl.plan.inner {
		cl.plan.cyclicWhy, cl.plan.cyclicName = verb, name
	}
}

func (cl *classifier) stmts(body []forcelang.Stmt) string {
	for _, st := range body {
		if reason := cl.stmt(st); reason != "" {
			return reason
		}
	}
	return ""
}

func (cl *classifier) stmt(st forcelang.Stmt) string {
	switch t := st.(type) {
	case *forcelang.Assign:
		return cl.assign(t)
	case *forcelang.If:
		cl.expr(t.Cond)
		if reason := cl.stmts(t.Then); reason != "" {
			return reason
		}
		return cl.stmts(t.Else)
	case *forcelang.SeqDo:
		sym, ok := cl.lay.syms[t.Var]
		if !ok || sym.class != scPrivate {
			return fmt.Sprintf("sequential DO index %s is not a private scalar", t.Var)
		}
		cl.plan.written[t.Var] = true
		cl.tainted[t.Var] = true
		cl.touchPriv("writes private", t.Var)
		cl.expr(t.From)
		cl.expr(t.To)
		if t.Step != nil {
			cl.expr(t.Step)
		}
		return cl.stmts(t.Body)
	default:
		// Everything else can block, synchronize, perform I/O or call
		// out — per-iteration semantics must be preserved exactly.
		return fmt.Sprintf("%T in body", st)
	}
}

func (cl *classifier) assign(t *forcelang.Assign) string {
	sym, ok := cl.lay.syms[t.Target.Name]
	if !ok {
		return fmt.Sprintf("undefined assignment target %s", t.Target.Name)
	}
	if sym.class == scParam {
		// A parameter aliases unknown caller storage; writing through it
		// defeats every disjointness and ordering argument.
		return fmt.Sprintf("assignment through parameter %s", t.Target.Name)
	}
	cl.plan.written[t.Target.Name] = true
	cl.touchPriv("writes private", t.Target.Name)
	if len(t.Target.Subs) > 0 {
		cl.arrays[t.Target.Name] = append(cl.arrays[t.Target.Name], &t.Target)
		for _, s := range t.Target.Subs {
			cl.expr(s)
		}
		cl.expr(t.Expr)
		return ""
	}
	cl.writes[t.Target.Name]++
	if acc, ok := matchAccum(cl.prog, cl.lay, t); ok {
		op := acc.op
		if prev, seen := cl.accOps[t.Target.Name]; seen && prev != op {
			cl.tainted[t.Target.Name] = true
		} else {
			cl.accOps[t.Target.Name] = op
			cl.selfRefs[t.Target.Name]++
			cl.accWrite[t.Target.Name]++
		}
	} else {
		cl.tainted[t.Target.Name] = true
	}
	cl.expr(t.Expr)
	return ""
}

// accum is one recognised shared-accumulate statement: the fold
// operator, the contributed operand e, whether a sum subtracts it, and
// whether the scalar is REAL (extrema only) or INTEGER.
type accum struct {
	op      accOp
	operand forcelang.Expr
	negate  bool
	real    bool
}

// matchAccum matches one assignment against the shared-accumulate
// shapes: S = S + e | S = e + S | S = S - e over an INTEGER shared
// scalar, or S = MAX(S, e) | S = MIN(S, e) over an INTEGER or REAL
// shared scalar, in both cases with S unsubscripted, not a parameter,
// and e never reading S.  It is the one recogniser behind the language
// rule (README, "Semantics"): the classifier folds what it accepts, the
// closure compiler and the tree walker execute it as one atomic update.
func matchAccum(prog *forcelang.Program, lay *unitLayout, t *forcelang.Assign) (accum, bool) {
	name := t.Target.Name
	sym, found := lay.syms[name]
	if !found || sym.class != scShared || len(t.Target.Subs) != 0 {
		return accum{}, false
	}
	acc := accum{real: sym.decl.Type == forcelang.TReal}
	want := sym.decl.Type // the type the whole right-hand side must have
	if delta, neg, ok := uniform.AccumDelta(name, t.Expr); ok {
		// Sums fold only when the target and the whole RHS are
		// statically INTEGER: a REAL-promoted sum is computed in
		// float64 and rounded at every iteration, which privately
		// accumulated deltas cannot reproduce.
		acc.op, acc.operand, acc.negate = accSum, delta, neg
		want = forcelang.TInt
	} else if arg, isMax, ok := uniform.AccumMinMax(name, t.Expr); ok {
		// Extrema fold exactly for INTEGER and REAL alike — MAX/MIN
		// keep one operand bit-for-bit — but the promoted intrinsic
		// type must equal the target's declared type, so the store
		// performs no conversion the fold would have to replay.
		acc.op, acc.operand = accMin, arg
		if isMax {
			acc.op = accMax
		}
	} else {
		return accum{}, false
	}
	if sym.decl.Type != want || uniform.RefersTo(acc.operand, name) {
		return accum{}, false
	}
	if et, err := forcelang.TypeOf(prog, lay.scope, t.Expr); err != nil || et != want {
		return accum{}, false
	}
	return acc, true
}

// expr records every reference inside e: scalar reads, parameter uses
// (which disable the bulk tier) and shared-array element reads.
func (cl *classifier) expr(e forcelang.Expr) {
	uniform.Walk(e, func(r *forcelang.Ref) {
		sym, ok := cl.lay.syms[r.Name]
		if !ok {
			return // compile will report it
		}
		if sym.class == scParam {
			cl.plan.noBulk = true
			return
		}
		cl.touchPriv("reads private", r.Name)
		if len(r.Subs) == 0 {
			cl.reads[r.Name]++
			return
		}
		if sym.class == scSharedArray {
			cl.arrays[r.Name] = append(cl.arrays[r.Name], r)
		}
	})
}

// planArrays records the written shared arrays whose every access
// provably lands on a per-iteration-private element.
func (cl *classifier) planArrays() {
	if cl.plan.noBulk {
		return
	}
	for name, uses := range cl.arrays {
		if cl.lay.syms[name].class == scSharedArray && cl.plan.written[name] && cl.disjointUses(uses) {
			cl.plan.disjoint[name] = true
		}
	}
}

// disjointUses checks the one-form + affine + injective conditions over
// all recorded accesses of one array, through the shared uniformity
// package.  The Space's IntScalar predicate encodes this classifier's
// remainder rule: an unwritten, non-parameter INTEGER private or shared
// scalar is identical for every iteration a process executes.
func (cl *classifier) disjointUses(refs []*forcelang.Ref) bool {
	sp := &uniform.Space{
		Outer: cl.plan.outer,
		Inner: cl.plan.inner,
		IntScalar: func(name string) bool {
			sym, found := cl.lay.syms[name]
			if !found || cl.plan.written[name] {
				return false
			}
			return (sym.class == scPrivate || sym.class == scShared) && sym.decl.Type == forcelang.TInt
		},
	}
	return sp.Disjoint(refs)
}

// planAccs promotes shared scalars to private accumulation when every
// appearance in the body is accounted for by accumulator statements
// over one operator.
func (cl *classifier) planAccs() {
	if cl.plan.noBulk {
		return
	}
	for name, n := range cl.accWrite {
		if cl.tainted[name] {
			continue
		}
		if cl.writes[name] != n || cl.reads[name] != cl.selfRefs[name] {
			// The scalar is read (or written) outside its accumulator
			// statements: mid-loop values are observable, so the
			// contributions cannot be deferred.
			continue
		}
		sym := cl.lay.syms[name]
		cl.plan.accs[name] = len(cl.plan.accSyms)
		cl.plan.accSyms = append(cl.plan.accSyms, accRec{
			sym:  sym,
			op:   cl.accOps[name],
			real: sym.decl.Type == forcelang.TReal,
		})
	}
}
