package interp

// The fusion pass: barrier elision across independent DOALLs and
// chunk-folded reductions.  Between classification and chunk
// compilation, this pass scans every statement list for maximal runs of
// adjacent single-index DOALLs, optionally followed by a numeric
// global-reduction statement, and compiles a proven-independent run as
// ONE fused region:
//
//	member 1: DoAllChunkedOpen   (spans, no exit barrier)
//	member 2: DoAllChunkedOpen
//	...
//	FusedJoin                    (the single closing collective)
//
// The join is a full synchronization point, so the region keeps every
// construct's exit guarantee while retiring one barrier episode per
// elided boundary; a folded reduction additionally retires its reduce
// episode, contributing its per-process operand to the join itself.
//
// Legality.  Dropping the barrier between members G (earlier) and B
// (later) interleaves B's iteration i directly after G's iteration i on
// the same process, while other processes may still be anywhere in G.
// That reordering is invisible exactly when no datum written in one
// member is touched by another at a different iteration:
//
//   - all members share one index variable and Canon-identical bounds,
//     and the bounds read nothing the region writes (a later member's
//     bounds would otherwise observe pre-barrier state);
//   - member bodies are individually chunk-certified, and so is their
//     concatenation (one synthetic DOALL), whose classification also
//     yields the region-wide disjointness facts;
//   - no member references a subroutine parameter (unknown aliasing);
//   - any name written by one member and referenced by another must be
//     a shared array proven element-disjoint over the COMBINED uses of
//     the whole region, AND the region must be prescheduled: disjoint
//     uses mean iteration i only ever touches its own elements, and
//     prescheduling pins iteration i of every member to the same
//     process (the cyclic and the block deal are both pure functions
//     of pid, np and the shared bounds, and a region uses one of them
//     throughout), so a later member's read of an element was either
//     written by the same process in program order or never written at
//     all.  Selfscheduled members hand iteration i of different
//     members to different processes, so ANY cross-member conflict
//     declines there; scalars (shared or private) and unproven arrays
//     decline everywhere — their mid-region values are observable.
//
// A trailing GSUM/GPROD/GMAX/GMIN folds into the join when its target
// is an unsubscripted scalar, its operand reads no parameter and no
// shared name the region writes (per-process private state is fine —
// it is complete once the contributing process finishes its own
// spans), and the fold order cannot show: the join folds in pid order
// (reduce.NumEpisode), which is bit-identical to the PrivateSlots
// strategy, so INTEGER operands always qualify, REAL MAX/MIN always
// qualify (extrema keep one operand bit-for-bit), and REAL sums and
// products qualify only under the PrivateSlots strategy.  GAND/GOR
// stay on the episode path.
//
// Every decision is compile-time; Config.FuseLog narrates each fused
// region and each declined candidate.  Config.NoFuse turns the pass
// off, and the pass never runs under ExecCompiled, ExecTree or an
// iteration-level trace — so fused and unfused runs are byte-identical
// by construction or the corpus tests fail.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/forcelang"
	"repro/internal/reduce"
	"repro/internal/uniform"
)

// fuseEnabled reports whether the fusion pass applies at all: only the
// chunk tier fuses.
func (c *compiler) fuseEnabled() bool { return c.chunkTier() && !c.in.cfg.NoFuse }

func (c *compiler) fuseLogf(format string, args ...any) {
	if lg := c.in.cfg.FuseLog; lg != nil {
		lg(fmt.Sprintf(format, args...))
	}
}

// fusedStmts is the fusion-aware statement-list compiler: runs of
// adjacent DOALLs (plus an optional reduction tail) compile through
// tryFuse, everything else through the ordinary per-statement path.
// Candidate regions shrink from the right — the reduction tail is
// dropped first, then trailing members — so the longest provable prefix
// fuses and the remainder is re-scanned (it may fuse among itself).
func (c *compiler) fusedStmts(list []forcelang.Stmt, lay *unitLayout) []stmtFn {
	out := make([]stmtFn, 0, len(list))
	for i := 0; i < len(list); {
		pd, isPD := list[i].(*forcelang.ParDo)
		if !isPD {
			out = append(out, c.stmt(list[i], lay))
			i++
			continue
		}
		members := []*forcelang.ParDo{pd}
		for i+len(members) < len(list) {
			next, ok := list[i+len(members)].(*forcelang.ParDo)
			if !ok {
				break
			}
			members = append(members, next)
		}
		var red *forcelang.ReduceStmt
		if r, ok := stmtAt(list, i+len(members)).(*forcelang.ReduceStmt); ok {
			red = r
		}
		fn, consumed := c.fuseRun(members, red, lay)
		if fn != nil {
			out = append(out, fn)
			i += consumed
			continue
		}
		out = append(out, c.stmt(pd, lay))
		i++
	}
	return out
}

func stmtAt(list []forcelang.Stmt, i int) forcelang.Stmt {
	if i < len(list) {
		return list[i]
	}
	return nil
}

// fuseRun tries candidate regions over the member run in order of
// decreasing ambition and returns the first that proves legal, with the
// number of statements it consumed.  Only the most ambitious decline is
// narrated — the shrink retries repeat its reasons.
func (c *compiler) fuseRun(members []*forcelang.ParDo, red *forcelang.ReduceStmt, lay *unitLayout) (stmtFn, int) {
	logged := false
	try := func(ms []*forcelang.ParDo, r *forcelang.ReduceStmt) stmtFn {
		fn, reason := c.tryFuse(ms, r, lay)
		if fn == nil && !logged {
			logged = true
			c.fuseLogf("line %d: fusion declined: %s", ms[0].Pos(), reason)
		}
		return fn
	}
	if red != nil {
		if fn := try(members, red); fn != nil {
			return fn, len(members) + 1
		}
	}
	for n := len(members); n >= 2; n-- {
		if fn := try(members[:n], nil); fn != nil {
			return fn, n
		}
	}
	return nil, 0
}

// tryFuse proves and compiles one candidate region, or explains why it
// must not fuse.
func (c *compiler) tryFuse(members []*forcelang.ParDo, red *forcelang.ReduceStmt, lay *unitLayout) (stmtFn, string) {
	first := members[0]
	for _, m := range members {
		if m.Inner != nil {
			return nil, fmt.Sprintf("two-index DOALL at line %d", m.Pos())
		}
		if m.Sched != first.Sched {
			return nil, fmt.Sprintf("mixed scheduling at line %d", m.Pos())
		}
	}
	for _, m := range members[1:] {
		if m.Var != first.Var {
			return nil, fmt.Sprintf("index variables differ (%s at line %d, %s at line %d)",
				first.Var, first.Pos(), m.Var, m.Pos())
		}
		if uniform.Canon(m.From) != uniform.Canon(first.From) ||
			uniform.Canon(m.To) != uniform.Canon(first.To) ||
			stepCanon(m.Step) != stepCanon(first.Step) {
			return nil, fmt.Sprintf("bounds differ between lines %d and %d", first.Pos(), m.Pos())
		}
	}

	// Classify the concatenation of every member body as one synthetic
	// DOALL: its verdict certifies each statement for the chunk tier and
	// its disjointness facts cover the region's COMBINED array uses.
	syn := *first
	if len(members) > 1 {
		var body []forcelang.Stmt
		for _, m := range members {
			body = append(body, m.Body...)
		}
		syn.Body = body
	}
	plan, reason := classifyParDo(c.res.prog, &syn, lay)
	if reason != "" {
		return nil, reason
	}
	if plan.noBulk {
		return nil, "parameter references in the region"
	}

	sets := make([]uniform.RefSets, len(members))
	allWrites := map[string]bool{}
	for i, m := range members {
		rs, ok := uniform.CollectRefSets(m.Body)
		if !ok {
			return nil, fmt.Sprintf("unsupported statement in member at line %d", m.Pos())
		}
		sets[i] = rs
		for n := range rs.Writes {
			allWrites[n] = true
		}
	}

	// Bounds are evaluated at each member's open, with other processes
	// possibly deep in earlier members — so they must read nothing the
	// region writes, and not the index variable (whose frame slot a
	// preceding member's chunks update).  Members have Canon-identical
	// bounds, so checking the first covers all.
	for _, e := range []forcelang.Expr{first.From, first.To, first.Step} {
		if e == nil {
			continue
		}
		bad := ""
		uniform.Walk(e, func(r *forcelang.Ref) {
			if allWrites[r.Name] || r.Name == first.Var {
				bad = r.Name
			}
		})
		if bad != "" {
			return nil, fmt.Sprintf("bounds read %s, which the region writes", bad)
		}
	}

	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			for _, name := range conflictNames(sets[a], sets[b]) {
				if name == first.Var {
					continue
				}
				// The same-element argument needs the same pid to execute
				// iteration i in EVERY member, which only prescheduling
				// guarantees; selfscheduled members hand iteration i of
				// different members to whichever process asks first.
				if first.Sched == forcelang.Presched {
					if sym, ok := lay.syms[name]; ok && sym.class == scSharedArray && plan.disjoint[name] {
						continue
					}
				}
				return nil, fmt.Sprintf("members at lines %d and %d conflict on %s",
					members[a].Pos(), members[b].Pos(), name)
			}
		}
	}

	if red != nil {
		if reason := c.fuseReduceCheck(red, allWrites, lay); reason != "" {
			return nil, reason
		}
	}
	if len(members) == 1 && red == nil {
		return nil, "nothing to elide"
	}

	// Proven.  Compile each member against its OWN plan (its own
	// hoisting and disjointness, consistent with the region's: a member
	// can only prove disjoint what the region did not refute) as an
	// open construct, and close the region with one fused join.
	// The same-pid argument needs ONE iteration-to-process map for the
	// whole region, so it is dealt in blocks only when the concatenated
	// body is mapping-insensitive — which implies every member's is.
	opens := make([]stmtFn, len(members))
	for i, m := range members {
		mplan, mreason := classifyParDo(c.res.prog, m, lay)
		if mreason != "" {
			return nil, fmt.Sprintf("member at line %d: %s", m.Pos(), mreason)
		}
		c.partitionLog(m, plan.cyclicWhy, plan.cyclicName)
		opens[i] = c.chunkParDo(m, lay, mplan, true, plan.cyclicWhy == "")
	}

	if red == nil {
		c.fuseLogf("line %d: fused %d DOALLs, %d exit barrier(s) elided",
			first.Pos(), len(members), len(members)-1)
		note := noteStr("fused join", members[len(members)-1].Pos())
		return func(pr *cproc, fr *frame) {
			for _, open := range opens {
				open(pr, fr)
			}
			pr.p.Note(note)
			// A pure synchronization close: the fold value is unused.
			pr.p.FusedJoin(reduce.Sum, reduce.NumInt, 0)
		}, ""
	}

	c.fuseLogf("line %d: fused %d DOALL(s) + %s at line %d into one join",
		first.Pos(), len(members), red.Op, red.Pos())
	store, tt := c.refStore(&red.Target, lay)
	rop := foldOp(red.Op)
	note := noteStr(red.Op.String(), red.Pos())
	if tt == forcelang.TInt {
		iv := c.asInt(red.Expr, lay)
		return func(pr *cproc, fr *frame) {
			for _, open := range opens {
				open(pr, fr)
			}
			pr.p.Note(note)
			out := pr.p.FusedJoin(rop, reduce.NumInt, uint64(iv(pr, fr)))
			store(pr, fr, intVal(int64(out)))
		}, ""
	}
	rv := c.cReal(red.Expr, lay)
	return func(pr *cproc, fr *frame) {
		for _, open := range opens {
			open(pr, fr)
		}
		pr.p.Note(note)
		out := pr.p.FusedJoin(rop, reduce.NumReal, math.Float64bits(rv(pr, fr)))
		store(pr, fr, realVal(math.Float64frombits(out)))
	}, ""
}

// fuseReduceCheck decides whether the reduction tail may fold into the
// region's join.
func (c *compiler) fuseReduceCheck(red *forcelang.ReduceStmt, allWrites map[string]bool, lay *unitLayout) string {
	if red.Op.Logical() {
		return fmt.Sprintf("%s is a logical reduction", red.Op)
	}
	if len(red.Target.Subs) != 0 {
		return fmt.Sprintf("subscripted %s target", red.Op)
	}
	tsym, ok := lay.syms[red.Target.Name]
	if !ok || (tsym.class != scPrivate && tsym.class != scShared) {
		return fmt.Sprintf("%s target %s is not a plain scalar", red.Op, red.Target.Name)
	}
	tt := tsym.decl.Type
	if tt != forcelang.TInt && tt != forcelang.TReal {
		return fmt.Sprintf("%s target %s is not numeric", red.Op, red.Target.Name)
	}
	bad := ""
	uniform.Walk(red.Expr, func(r *forcelang.Ref) {
		sym, found := lay.syms[r.Name]
		if !found {
			return
		}
		if sym.class == scParam {
			bad = "parameter " + r.Name
			return
		}
		if allWrites[r.Name] && (sym.class == scShared || sym.class == scSharedArray) {
			bad = fmt.Sprintf("shared %s, which the region writes", r.Name)
		}
	})
	if bad != "" {
		return fmt.Sprintf("%s operand reads %s", red.Op, bad)
	}
	if tt == forcelang.TReal && (red.Op == forcelang.GSum || red.Op == forcelang.GProd) &&
		c.in.cfg.Reduce != reduce.PrivateSlots {
		return fmt.Sprintf("REAL %s folds in pid order, which only the slots strategy reproduces", red.Op)
	}
	return ""
}

// conflictNames returns, sorted, every name one member writes and the
// other touches: write-read, read-write and write-write pairs all
// reorder observably across an elided barrier.
func conflictNames(x, y uniform.RefSets) []string {
	seen := map[string]bool{}
	for n := range x.Writes {
		if y.Reads[n] || y.Writes[n] {
			seen[n] = true
		}
	}
	for n := range y.Writes {
		if x.Reads[n] {
			seen[n] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// stepCanon keys an optional loop step; an absent step is the literal 1.
func stepCanon(e forcelang.Expr) string {
	if e == nil {
		return uniform.Canon(&forcelang.IntLit{Value: 1})
	}
	return uniform.Canon(e)
}

// foldOp maps a numeric language-level reduction operator to its fold.
func foldOp(op forcelang.GOp) reduce.Op {
	switch op {
	case forcelang.GSum:
		return reduce.Sum
	case forcelang.GProd:
		return reduce.Prod
	case forcelang.GMax:
		return reduce.Max
	default:
		return reduce.Min
	}
}
