package plan

// Uniform/varying classification for DOALL bodies — the analysis behind
// span execution in both back ends.  One walk over a ParDo body decides:
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
//   - which written shared arrays are PROVABLY DISJOINT: every access
//     uses one identical subscript form, affine in the loop indices with
//     literal coefficients and an index-free remainder, and that form is
//     injective on the index space (nonzero coefficient for one index,
//     a nonsingular 2x2 minor for two).  Disjointness is the legality
//     fact the fusion pass, the partition choice below and forcevet
//     consume.
//   - which shared scalars are pure accumulators: every appearance in
//     the body is one accumulator shape over the same operator —
//     `S = S + e` / `S = S - e` with an INTEGER right-hand side (sums
//     round under REAL, so only INTEGER sums fold exactly), or
//     `S = MAX(S, e)` / `S = MIN(S, e)` for INTEGER and REAL alike
//     (extrema keep one operand bit-for-bit, so they fold exactly) —
//     with e never reading S.  Their contributions accumulate
//     privately per span and fold into the cell with one atomic RMW:
//     an add for sums, a compare-and-swap race for extrema.
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
	Outer, Inner string // loop index names ("" when no inner index)

	// Written holds every scalar and array name the body assigns
	// (including sequential DO indices).  References to written names
	// are varying; everything else index-free is uniform.
	Written map[string]bool
	// NoBulk disables the disjointness proof and accumulator folding
	// (parameter references present).
	NoBulk bool
	// Disjoint holds the written shared arrays proven element-disjoint
	// across iterations.
	Disjoint map[string]bool
	// CyclicWhy is "" for a mapping-insensitive body, else the reason
	// (a phrase, completed by CyclicName when that is set) a Presched
	// DOALL over it must keep the cyclic deal.
	CyclicWhy, CyclicName string
	// Accs maps folded accumulator scalars to their index in AccRecs.
	Accs map[string]int
	// AccRecs holds the folded accumulators in name order.
	AccRecs []AccRec
}

// AccOp is the fold operator of one accumulator scalar.
type AccOp uint8

const (
	AccSum AccOp = iota
	AccMax
	AccMin
)

// AccRec is one folded accumulator: the scalar (by name and by symbol),
// its fold operator, and whether the partial is a REAL (extrema only) or
// an INTEGER (sums and extrema).
type AccRec struct {
	Name string
	Sym  *forcelang.Symbol
	Op   AccOp
	Real bool
}

// classifier carries the single-walk state.
type classifier struct {
	plan *Plan
	// syms holds the symbol behind every name the walk met.
	syms map[string]*forcelang.Symbol

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
	accOps   map[string]AccOp
	tainted  map[string]bool

	// arrays holds every subscripted access (read or write) per name.
	arrays map[string][]*forcelang.Ref
}

// Classify analyses t's body.  It returns the plan, or the reason the
// body must keep per-iteration semantics.
func Classify(t *forcelang.ParDo) (*Plan, string) {
	plan := &Plan{
		Outer:    t.Var,
		Written:  map[string]bool{},
		Disjoint: map[string]bool{},
		Accs:     map[string]int{},
	}
	indices := []*forcelang.Symbol{t.VarSym}
	if t.Inner != nil {
		plan.Inner = t.Inner.Var
		if plan.Inner == plan.Outer {
			return nil, "inner index shadows outer index"
		}
		indices = append(indices, t.Inner.VarSym)
	}
	for _, sym := range indices {
		if sym.Storage != forcelang.PrivateScalar {
			return nil, fmt.Sprintf("loop index %s is not a private scalar", sym.Name)
		}
	}
	cl := &classifier{
		plan:     plan,
		syms:     map[string]*forcelang.Symbol{},
		reads:    map[string]int{},
		selfRefs: map[string]int{},
		accWrite: map[string]int{},
		writes:   map[string]int{},
		accOps:   map[string]AccOp{},
		tainted:  map[string]bool{},
		arrays:   map[string][]*forcelang.Ref{},
	}
	if reason := cl.stmts(t.Body); reason != "" {
		return nil, reason
	}
	if plan.Written[plan.Outer] || (plan.Inner != "" && plan.Written[plan.Inner]) {
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
	if plan.NoBulk {
		plan.CyclicWhy, plan.CyclicName = "parameter reference", ""
	}
	if plan.CyclicWhy != "" {
		return
	}
	for name := range plan.Written { // only shared names: no private was touched
		_, isAcc := plan.Accs[name]
		if !isAcc && !plan.Disjoint[name] && (plan.CyclicName == "" || name < plan.CyclicName) {
			plan.CyclicWhy, plan.CyclicName = "non-disjoint, non-accumulator write of shared", name
		}
	}
}

// touchPriv records the body's first use of a private name that is not
// one of its own loop indices.
func (cl *classifier) touchPriv(verb string, sym *forcelang.Symbol) {
	if cl.plan.CyclicWhy == "" && (sym.Storage == forcelang.PrivateScalar || sym.Storage == forcelang.PrivateArray) &&
		sym.Name != cl.plan.Outer && sym.Name != cl.plan.Inner {
		cl.plan.CyclicWhy, cl.plan.CyclicName = verb, sym.Name
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
		if t.VarSym.Storage != forcelang.PrivateScalar {
			return fmt.Sprintf("sequential DO index %s is not a private scalar", t.Var)
		}
		cl.plan.Written[t.Var] = true
		cl.tainted[t.Var] = true
		cl.touchPriv("writes private", t.VarSym)
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
	sym := t.Target.Sym
	if sym.Storage == forcelang.Parameter {
		// A parameter aliases unknown caller storage; writing through it
		// defeats every disjointness and ordering argument.
		return fmt.Sprintf("assignment through parameter %s", t.Target.Name)
	}
	cl.syms[sym.Name] = sym
	cl.plan.Written[t.Target.Name] = true
	cl.touchPriv("writes private", sym)
	if len(t.Target.Subs) > 0 {
		cl.arrays[t.Target.Name] = append(cl.arrays[t.Target.Name], &t.Target)
		for _, s := range t.Target.Subs {
			cl.expr(s)
		}
		cl.expr(t.Expr)
		return ""
	}
	cl.writes[t.Target.Name]++
	if acc, ok := MatchAccum(t); ok {
		if prev, seen := cl.accOps[t.Target.Name]; seen && prev != acc.Op {
			cl.tainted[t.Target.Name] = true
		} else {
			cl.accOps[t.Target.Name] = acc.Op
			cl.selfRefs[t.Target.Name]++
			cl.accWrite[t.Target.Name]++
		}
	} else {
		cl.tainted[t.Target.Name] = true
	}
	cl.expr(t.Expr)
	return ""
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

// expr records every reference inside e: scalar reads, parameter uses
// (which disable the bulk facts) and shared-array element reads.
func (cl *classifier) expr(e forcelang.Expr) {
	uniform.Walk(e, func(r *forcelang.Ref) {
		if r.Sym.Storage == forcelang.Parameter {
			cl.plan.NoBulk = true
			return
		}
		cl.syms[r.Name] = r.Sym
		cl.touchPriv("reads private", r.Sym)
		if len(r.Subs) == 0 {
			cl.reads[r.Name]++
			return
		}
		if r.Sym.Storage == forcelang.SharedArray {
			cl.arrays[r.Name] = append(cl.arrays[r.Name], r)
		}
	})
}

// planArrays records the written shared arrays whose every access
// provably lands on a per-iteration-private element.
func (cl *classifier) planArrays() {
	if cl.plan.NoBulk {
		return
	}
	for name, uses := range cl.arrays {
		if cl.syms[name].Storage == forcelang.SharedArray && cl.plan.Written[name] && cl.disjointUses(uses) {
			cl.plan.Disjoint[name] = true
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
		Outer: cl.plan.Outer,
		Inner: cl.plan.Inner,
		IntScalar: func(r *forcelang.Ref) bool {
			st := r.Sym.Storage
			return !cl.plan.Written[r.Name] && r.Sym.Type == forcelang.TInt &&
				(st == forcelang.PrivateScalar || st == forcelang.SharedScalar)
		},
	}
	return sp.Disjoint(refs)
}

// planAccs promotes shared scalars to private accumulation when every
// appearance in the body is accounted for by accumulator statements
// over one operator.
func (cl *classifier) planAccs() {
	if cl.plan.NoBulk {
		return
	}
	names := make([]string, 0, len(cl.accWrite))
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
		names = append(names, name)
	}
	sort.Strings(names) // a stable order: the emitter's output is cached by content
	for _, name := range names {
		cl.plan.Accs[name] = len(cl.plan.AccRecs)
		sym := cl.syms[name]
		cl.plan.AccRecs = append(cl.plan.AccRecs, AccRec{
			Name: name,
			Sym:  sym,
			Op:   cl.accOps[name],
			Real: sym.Type == forcelang.TReal,
		})
	}
}
