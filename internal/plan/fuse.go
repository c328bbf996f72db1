package plan

// The fusion proofs: barrier elision across independent DOALLs and
// span-folded reductions.  A back end scans every statement list for
// maximal runs of adjacent single-index DOALLs, optionally followed by a
// numeric global-reduction statement (Fuse), and executes a
// proven-independent run as ONE fused region:
//
//	member 1: DoAllChunkedOpen   (spans, no exit barrier)
//	member 2: DoAllChunkedOpen
//	...
//	FusedJoin                    (the single closing collective)
//
// The join is a full synchronization point, so the region keeps every
// construct's exit guarantee while retiring one barrier episode per
// elided boundary; a folded reduction contributes its per-process operand
// to the join itself instead of closing a collective of its own, and a
// Barrier statement directly behind the region retires its episode — the
// join's completing process runs its section (Region.Rider).  A reduction
// statement no region takes is lowered by the back ends as a region with
// no members: the same collective, nothing open in front of it.
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
//   - member bodies are individually span-certified, and so is their
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
// spans).  The fold order cannot show: a fused tail and a reduction on
// its own contribute through the same collective, which folds the same
// way under either reduction strategy.  GAND/GOR close a collective of
// their own.

import (
	"fmt"

	"repro/internal/forcelang"
	"repro/internal/uniform"
)

// Region is one proven fused region.
type Region struct {
	Members []*forcelang.ParDo
	// Plans holds each member's OWN plan (its own folding and
	// disjointness, consistent with the region's: a member can only
	// prove disjoint what the region did not refute).
	Plans []*Plan
	// Block deals the whole region in blocks.  The same-pid argument
	// needs ONE iteration-to-process map for the region, so it holds
	// only when the concatenated body is mapping-insensitive — which
	// implies every member's is.
	Block bool
	// Red is the reduction statement folded into the join, or nil for a
	// pure synchronization close.
	Red *forcelang.ReduceStmt
	// Rider is the Barrier statement directly behind the region, whose
	// section the join runs in its completing process (Target.Rider), or
	// nil.
	Rider *forcelang.BarrierStmt
}

// Len is the number of statements the region covers.
func (r *Region) Len() int {
	n := len(r.Members)
	if r.Red != nil {
		n++
	}
	if r.Rider != nil {
		n++
	}
	return n
}

// Fuse looks for a fused region starting at list[i], which must be a
// ParDo: the run of adjacent DOALLs from there, plus a reduction tail.
// Candidates shrink from the right — the tail is dropped first, then
// trailing members — so the longest provable prefix fuses and the caller
// re-scans the remainder (it may fuse among itself).  Only the most
// ambitious decline is narrated; the shrink retries repeat its reasons.
// A Barrier statement directly behind the region rides its join.  A nil
// result leaves list[i] to be lowered on its own.
func (tg Target) Fuse(list []forcelang.Stmt, i int) *Region {
	first := i
	var members []*forcelang.ParDo
	for ; i < len(list); i++ {
		pd, ok := list[i].(*forcelang.ParDo)
		if !ok {
			break
		}
		members = append(members, pd)
	}
	var red *forcelang.ReduceStmt
	if i < len(list) {
		red, _ = list[i].(*forcelang.ReduceStmt)
	}
	if red == nil && len(members) < 2 {
		return nil // nothing to elide: not a candidate, nothing to narrate
	}
	// Each member body is walked once; every candidate below reads these.
	sums := make([]*Summary, len(members))
	for k, m := range members {
		sums[k] = Summarize(m.Body)
	}
	logged := false
	try := func(n int, r *forcelang.ReduceStmt) *Region {
		reg, reason := tg.tryFuse(members[:n], sums[:n], r)
		if reg == nil && !logged {
			logged = true
			tg.Log.printf("line %d: fusion declined: %s", members[0].Pos(), reason)
		}
		if reg != nil {
			closer, line := "fused join", members[0].Pos()
			if r != nil {
				closer, line = r.Op.String()+" join", r.Pos()
			}
			reg.Rider = tg.rider(list, first+reg.Len(), closer, line)
		}
		return reg
	}
	if red != nil {
		if reg := try(len(members), red); reg != nil {
			return reg
		}
	}
	for n := len(members); n >= 2; n-- {
		if reg := try(n, nil); reg != nil {
			return reg
		}
	}
	return nil
}

// tryFuse proves one candidate region, or explains why it must not fuse.
// sums holds each member body's footprint.
func (tg Target) tryFuse(members []*forcelang.ParDo, sums []*Summary, red *forcelang.ReduceStmt) (*Region, string) {
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
		if m.VarSym != first.VarSym {
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
	// DOALL: its verdict certifies each statement for span execution and
	// its disjointness facts cover the region's COMBINED array uses.
	whole, reason := classify(first, merge(sums))
	if reason != "" {
		return nil, reason
	}
	if whole.NoBulk {
		return nil, "parameter references in the region"
	}

	// Bounds are evaluated at each member's open, with other processes
	// possibly deep in earlier members — so they must read nothing the
	// region writes, and not the index variable (which a preceding
	// member's spans update).  Members have Canon-identical bounds, so
	// checking the first covers all.
	for _, e := range []forcelang.Expr{first.From, first.To, first.Step} {
		bad := ""
		uniform.Walk(e, func(r *forcelang.Ref) {
			if whole.Written(r.Sym) || r.Sym == first.VarSym {
				bad = r.Name
			}
		})
		if bad != "" {
			return nil, fmt.Sprintf("bounds read %s, which the region writes", bad)
		}
	}

	// The same-element argument needs the same pid to execute iteration i
	// in EVERY member, which only prescheduling guarantees; selfscheduled
	// members hand iteration i of different members to whichever process
	// asks first.  (Disjoint holds shared arrays only.)
	excused := func(sym *forcelang.Symbol) bool {
		return sym == first.VarSym || (first.Sched == forcelang.Presched && whole.Disjoint[sym])
	}
	for a := 0; a < len(members); a++ {
		for b := a + 1; b < len(members); b++ {
			if sym := conflict(sums[a], sums[b], excused); sym != nil {
				return nil, fmt.Sprintf("members at lines %d and %d conflict on %s",
					members[a].Pos(), members[b].Pos(), sym.Name)
			}
		}
	}

	if red != nil {
		if reason := fuseReduceCheck(red, whole); reason != "" {
			return nil, reason
		}
	}
	if len(members) == 1 && red == nil {
		return nil, "nothing to elide"
	}

	reg := &Region{Members: members, Plans: make([]*Plan, len(members)), Block: whole.Block(), Red: red}
	for i, m := range members {
		// A member's own footprint cannot refute what the region's
		// passed: it is span-executable and leaves the index alone.
		reg.Plans[i] = whole
		if len(members) > 1 {
			reg.Plans[i], _ = classify(m, sums[i])
		}
		tg.settle(m, reg.Plans[i], whole)
	}
	if red == nil {
		tg.Log.printf("line %d: fused %d DOALLs, %d exit barrier(s) elided",
			first.Pos(), len(members), len(members)-1)
	} else {
		tg.Log.printf("line %d: fused %d DOALL(s) + %s at line %d into one join",
			first.Pos(), len(members), red.Op, red.Pos())
	}
	return reg, ""
}

// fuseReduceCheck decides whether the reduction tail may fold into the
// region's join.
func fuseReduceCheck(red *forcelang.ReduceStmt, whole *Plan) string {
	if red.Op.Logical() {
		return fmt.Sprintf("%s is a logical reduction", red.Op)
	}
	if len(red.Target.Subs) != 0 {
		return fmt.Sprintf("subscripted %s target", red.Op)
	}
	if !scalarTarget(red) {
		return fmt.Sprintf("%s target %s is not a plain scalar", red.Op, red.Target.Name)
	}
	tt := red.Target.Sym.Type
	if tt != forcelang.TInt && tt != forcelang.TReal {
		return fmt.Sprintf("%s target %s is not numeric", red.Op, red.Target.Name)
	}
	bad := ""
	uniform.Walk(red.Expr, func(r *forcelang.Ref) {
		class := r.Sym.Storage
		if class == forcelang.Parameter {
			bad = "parameter " + r.Name
			return
		}
		if whole.Written(r.Sym) && (class == forcelang.SharedScalar || class == forcelang.SharedArray) {
			bad = fmt.Sprintf("shared %s, which the region writes", r.Name)
		}
	})
	if bad != "" {
		return fmt.Sprintf("%s operand reads %s", red.Op, bad)
	}
	return ""
}

// conflict returns the first symbol in name order — the one a decline
// names — that one member writes and the other touches without being
// excused: write-read, read-write and write-write pairs all reorder
// observably across an elided barrier.
func conflict(x, y *Summary, excused func(*forcelang.Symbol) bool) *forcelang.Symbol {
	var worst *forcelang.Symbol
	for _, a := range x.Accesses() {
		b := y.Of(a.Sym)
		if b != nil && (a.Written() || b.Written()) && !excused(a.Sym) && (worst == nil || a.Sym.Name < worst.Name) {
			worst = a.Sym
		}
	}
	return worst
}

// stepCanon keys an optional loop step; an absent step is the literal 1.
func stepCanon(e forcelang.Expr) string {
	if e == nil {
		return uniform.Canon(&forcelang.IntLit{Value: 1})
	}
	return uniform.Canon(e)
}
